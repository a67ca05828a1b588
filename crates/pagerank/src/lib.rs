//! # rcw-pagerank
//!
//! Personalized PageRank and the greedy policy-iteration disturbance search
//! (Procedure PRI) that make k-RCW verification tractable for APPNP
//! classifiers under (k, b)-disturbances (§III-B of the paper).
//!
//! The crate is model-agnostic: PPR and value-function computations work on
//! any [`rcw_graph::GraphView`], and the PRI search takes its objective as a
//! plain per-node reward vector.

pub mod cache;
pub mod ppr;
pub mod pri;

pub use cache::PprCache;
pub use ppr::{ppr_matrix_exact, ppr_row, propagation_matrix, value_function};
pub use pri::{pri_search, truncate_to_k, PriConfig, PriResult};

#[cfg(test)]
mod proptests {
    use super::*;
    use rcw_graph::{generators, Csr, GraphView};

    /// PPR rows are probability distributions: non-negative, summing to 1.
    /// (Pinned seed sweep replacing `proptest`.)
    #[test]
    fn ppr_rows_are_distributions() {
        for seed in 0u64..24 {
            let n = 3 + (seed as usize * 3) % 9;
            let mut g = generators::erdos_renyi(n, 0.3, seed * 13);
            generators::ensure_connected(&mut g, seed);
            let view = GraphView::full(&g);
            let csr = Csr::from_view(&view);
            let row = ppr_row(&csr, 0, 0.15, 150);
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "seed {seed}: sum {sum}");
            assert!(row.iter().all(|&x| x >= -1e-12), "seed {seed}");
        }
    }

    /// The value-function identity `pi(v)^T r = (1-alpha) X[v]` holds on
    /// random graphs and random objectives.
    #[test]
    fn value_function_identity() {
        for seed in 0u64..24 {
            let n = 3 + (seed as usize * 5) % 7;
            let mut g = generators::erdos_renyi(n, 0.35, seed * 17);
            generators::ensure_connected(&mut g, seed);
            let view = GraphView::full(&g);
            let csr = Csr::from_view(&view);
            let alpha = 0.2;
            let r: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + seed as usize) % 5) as f64 - 2.0)
                .collect();
            let x = value_function(&csr, &r, alpha, 300);
            let pi = ppr_matrix_exact(&view, alpha);
            for (v, &xv) in x.iter().enumerate() {
                let obj: f64 = pi.row(v).iter().zip(&r).map(|(p, ri)| p * ri).sum();
                assert!(
                    (obj - (1.0 - alpha) * xv).abs() < 1e-5,
                    "seed {seed}, node {v}"
                );
            }
        }
    }
}
