//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated between the
/// two nearest ranks. Sorts in place; `NaN` for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean, `0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Steady quantile of a timed phase: the samples (`(send time, value)`, in
/// nanoseconds) are cut into consecutive slices of `slice_ns` by send time,
/// the `q`-quantile is taken within each slice that holds at least
/// `min_samples`, and the median of those slice quantiles is returned (in
/// the unit of `divisor`). A burst of host noise then moves only the slices
/// it overlaps, not the reported figure.
pub fn sliced_quantile(
    samples: &[(u64, u64)],
    slice_ns: u64,
    min_samples: usize,
    q: f64,
    divisor: f64,
) -> f64 {
    let mut slices: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(start, value) in samples {
        slices
            .entry(start / slice_ns)
            .or_default()
            .push(value as f64 / divisor);
    }
    let mut per_slice: Vec<f64> = slices
        .into_values()
        .filter(|xs| xs.len() >= min_samples)
        .map(|mut xs| quantile(&mut xs, q))
        .collect();
    if per_slice.is_empty() {
        // Too short to slice: fall back to the pooled quantile.
        let mut all: Vec<f64> = samples.iter().map(|&(_, v)| v as f64 / divisor).collect();
        return quantile(&mut all, q);
    }
    median(&mut per_slice)
}

/// Nanoseconds to the given unit divisor (`1e3` for µs, `1e6` for ms).
pub fn scaled(ns: &[u64], divisor: f64) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / divisor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(median(&mut xs), 2.5);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn sliced_quantiles_ignore_a_noisy_minority_of_slices() {
        // Three slices of ten samples; one slice is ten times slower.
        let mut samples = Vec::new();
        for slice in 0..3u64 {
            for i in 0..10u64 {
                let value = if slice == 1 { 1000 + i } else { 100 + i };
                samples.push((slice * 1000 + i, value));
            }
        }
        assert_eq!(sliced_quantile(&samples, 1000, 5, 0.5, 1.0), 104.5);
        // Slices below the minimum are skipped; none left falls back.
        assert_eq!(sliced_quantile(&samples, 1000, 11, 0.0, 1.0), 100.0);
    }
}
