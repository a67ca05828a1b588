//! # rcw-gnn
//!
//! GNN substrate for the RoboGExp reproduction: fixed, deterministic node
//! classifiers that can be evaluated on arbitrary edge-masked
//! [`GraphView`](rcw_graph::GraphView)s.
//!
//! Provided models:
//! * [`Gcn`] — the classifier configuration used by the paper's experiments
//!   (message-passing graph convolution), trainable from scratch.
//! * [`Appnp`] — personalized-PageRank propagation; the model class for which
//!   the paper proves tractable k-RCW verification. Trainable from scratch.
//! * [`GraphSage`], [`Gat`] — inference-grade models demonstrating that the
//!   witness machinery is model-agnostic.
//!
//! All models implement [`GnnModel`], the paper's inference function
//! `M(v, G)`, and are deterministic functions of their weights and the view.

pub mod appnp;
pub mod cache;
pub mod gat;
pub mod gcn;
pub mod model;
pub mod sage;
pub mod train;

pub use appnp::Appnp;
pub use cache::EpochCache;
pub use gat::Gat;
pub use gcn::Gcn;
pub use model::{accuracy, one_hot_labels, ForwardScratch, GnnModel, KernelScratch};
pub use sage::GraphSage;
pub use train::{train_test_split, Adam, TrainConfig, TrainReport};

use rcw_linalg::Matrix;

/// Pads (or truncates) a feature matrix to exactly `dim` columns so that
/// graphs whose feature dimension differs slightly from the model's expected
/// input can still be evaluated. Extra columns are zero.
pub fn pad_features(x: &Matrix, dim: usize) -> Matrix {
    if x.cols() == dim {
        return x.clone();
    }
    let mut out = Matrix::zeros(x.rows(), dim);
    let copy = x.cols().min(dim);
    for r in 0..x.rows() {
        for c in 0..copy {
            out.set(r, c, x.get(r, c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_features_pads_and_truncates() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let padded = pad_features(&x, 4);
        assert_eq!(padded.shape(), (2, 4));
        assert_eq!(padded.row(0), &[1.0, 2.0, 0.0, 0.0]);
        let truncated = pad_features(&x, 1);
        assert_eq!(truncated.shape(), (2, 1));
        assert_eq!(truncated.row(1), &[3.0]);
        let same = pad_features(&x, 2);
        assert_eq!(same, x);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rcw_graph::{generators, EdgeSet, GraphView};

    /// GCN logits are finite and have one row per node for random graphs
    /// and random edge masks. (Pinned seed sweep replacing `proptest`.)
    #[test]
    fn gcn_logits_always_finite() {
        for seed in 0u64..24 {
            let n = 4 + (seed as usize * 3) % 10;
            let mut g = generators::erdos_renyi(n, 0.3, seed * 19);
            for v in 0..n {
                g.set_features(v, vec![(v % 3) as f64, 1.0]);
                g.set_label(v, v % 2);
            }
            let gcn = Gcn::new(&[2, 4, 2], seed);
            let edges = g.edge_vec();
            let take = (seed as usize * 7) % (edges.len() + 1);
            let mask: EdgeSet = edges.into_iter().take(take).collect();
            let view = GraphView::without(&g, &mask);
            let z = gcn.logits(&view);
            assert_eq!(z.shape(), (n, 2), "seed {seed}");
            assert!(z.is_finite(), "seed {seed}");
        }
    }

    /// APPNP prediction is invariant to evaluating twice (determinism) and
    /// well-defined on every node, including isolated ones.
    #[test]
    fn appnp_deterministic_and_total() {
        for seed in 0u64..24 {
            let n = 4 + (seed as usize * 5) % 8;
            let mut g = generators::erdos_renyi(n, 0.25, seed * 31);
            for v in 0..n {
                g.set_features(v, vec![v as f64 / n as f64, 1.0 - v as f64 / n as f64]);
            }
            let m = Appnp::new(&[2, 3, 2], 0.2, 8, seed);
            let view = GraphView::full(&g);
            let p1 = m.predict_all(&view);
            let p2 = m.predict_all(&view);
            assert_eq!(&p1, &p2, "seed {seed}");
            assert_eq!(p1.len(), n, "seed {seed}");
        }
    }
}
