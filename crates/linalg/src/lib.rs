//! # rcw-linalg
//!
//! Dense linear-algebra substrate for the RoboGExp reproduction.
//!
//! The paper's algorithms only require moderate-size dense math: node feature
//! matrices (`|V| x F`), GNN weight matrices, logits (`|V| x |L|`), and
//! personalized-PageRank systems `(I - alpha * D^{-1} A) x = b`. Everything is
//! implemented over row-major `f64` storage with no external BLAS, keeping the
//! build self-contained and deterministic.
//!
//! Modules:
//! * [`matrix`] — the [`Matrix`] type with arithmetic, products and reductions.
//! * [`vector`] — free functions over `&[f64]` (dot, L1 distance, softmax, argmax).
//! * [`activations`] — elementwise non-linearities and their derivatives.
//! * [`solve`] — Gaussian elimination, matrix inverse, and linear solves used
//!   for exact personalized PageRank.
//! * [`init`] — deterministic Xavier/Glorot and uniform initializers.
//! * [`rng`] — the workspace's seeded, dependency-free PRNG.

pub mod activations;
pub mod init;
pub mod matrix;
pub mod rng;
pub mod solve;
pub mod vector;

pub use activations::Activation;
pub use matrix::{matmul_packed_rows, matmul_pret_rows, Matrix, PackedWeights};
pub use rng::Rng;

/// Returns `true` when `a` and `b` are within `tol` of each other.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Returns `true` when two slices are elementwise within `tol`.
pub fn approx_eq_slice(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(*x, *y, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_slice_checks_length() {
        assert!(!approx_eq_slice(&[1.0], &[1.0, 2.0], 1e-9));
        assert!(approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0], 1e-9));
    }
}
