//! Free functions over `&[f64]` vectors.
//!
//! These helpers are used both by the GNN substrate (softmax, argmax,
//! cross-entropy) and by the PageRank machinery (dot products, L1 residuals).

/// Dot product of two equally sized slices.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// L1 distance between two slices.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_distance: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Index of the maximum element; ties resolve to the smallest index.
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax(a: &[f64]) -> usize {
    assert!(!a.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > a[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum element; ties resolve to the smallest index.
pub fn argmin(a: &[f64]) -> usize {
    assert!(!a.is_empty(), "argmin of empty slice");
    let mut best = 0;
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v < a[best] {
            best = i;
        }
    }
    best
}

/// Numerically stable in-place softmax.
pub fn softmax_inplace(a: &mut [f64]) {
    if a.is_empty() {
        return;
    }
    let max = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in a.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in a.iter_mut() {
            *v /= sum;
        }
    }
}

/// Numerically stable softmax returning a new vector.
pub fn softmax(a: &[f64]) -> Vec<f64> {
    let mut out = a.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Log-sum-exp of a slice (stable).
pub fn log_sum_exp(a: &[f64]) -> f64 {
    let max = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + a.iter().map(|v| (v - max).exp()).sum::<f64>().ln()
}

/// Cross-entropy loss of a logits vector against a target class.
///
/// Equivalent to `-log softmax(logits)[target]`, computed stably.
pub fn cross_entropy(logits: &[f64], target: usize) -> f64 {
    assert!(target < logits.len(), "cross_entropy: target out of range");
    log_sum_exp(logits) - logits[target]
}

/// Elementwise `a + scale * b`, in place on `a`.
pub fn axpy(a: &mut [f64], scale: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += scale * y;
    }
}

/// Mean of a slice (0.0 for an empty slice).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dot_and_distance() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(l1_distance(&[1.0, 1.0], &[0.0, 3.0]), 3.0);
    }

    #[test]
    fn argmax_ties_resolve_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmin(&[2.0, 0.0, 0.0]), 1);
    }

    #[test]
    #[should_panic]
    fn argmax_empty_panics() {
        argmax(&[]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_monotone() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!(approx_eq(s.iter().sum::<f64>(), 1.0, 1e-12));
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let s = softmax(&[1000.0, 1000.0]);
        assert!(approx_eq(s[0], 0.5, 1e-12));
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let good = cross_entropy(&[5.0, 0.0], 0);
        let bad = cross_entropy(&[5.0, 0.0], 1);
        assert!(good < bad);
        assert!(good > 0.0);
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let naive = (1.0_f64.exp() + 2.0_f64.exp()).ln();
        assert!(approx_eq(log_sum_exp(&[1.0, 2.0]), naive, 1e-12));
    }

    #[test]
    fn axpy_adds_a_scaled_slice() {
        let mut b = vec![1.0, 1.0];
        axpy(&mut b, 2.0, &[1.0, 2.0]);
        assert_eq!(b, vec![3.0, 5.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!(approx_eq(mean(&[1.0, 3.0]), 2.0, 1e-12));
    }
}
