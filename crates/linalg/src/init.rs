//! Deterministic weight initializers.
//!
//! All models in the reproduction must be *fixed and deterministic* (the paper
//! assumes a fixed, deterministic GNN `M`). Every initializer therefore takes
//! an explicit seed and uses a seeded PRNG.

use crate::rng::Rng;
use crate::Matrix;

/// Xavier/Glorot uniform initialization: entries drawn from
/// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    let bound = (6.0 / (rows + cols).max(1) as f64).sqrt();
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Uniform initialization in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, seed: u64) -> Matrix {
    assert!(lo < hi, "uniform: lo must be < hi");
    let mut rng = Rng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_deterministic_per_seed() {
        let a = xavier_uniform(4, 3, 7);
        let b = xavier_uniform(4, 3, 7);
        let c = xavier_uniform(4, 3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_respects_bound() {
        let m = xavier_uniform(10, 10, 1);
        let bound = (6.0 / 20.0_f64).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= bound + 1e-12));
    }

    #[test]
    fn uniform_respects_range() {
        let m = uniform(5, 5, -0.5, 0.5, 3);
        assert!(m.data().iter().all(|v| *v >= -0.5 && *v < 0.5));
    }

    #[test]
    #[should_panic(expected = "lo must be < hi")]
    fn uniform_rejects_bad_range() {
        uniform(1, 1, 1.0, 0.0, 0);
    }
}
