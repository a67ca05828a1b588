//! # rcw-datasets
//!
//! Synthetic stand-ins for the paper's datasets plus the case-study graphs.
//!
//! The original evaluation uses BAHouse (synthetic), PPI, CiteSeer and Reddit.
//! Real data cannot be bundled here, so each dataset is replaced by a
//! generator that reproduces its structural character at a laptop-friendly
//! scale (see `DESIGN.md` §3 for the substitution argument):
//!
//! | paper dataset | module | stand-in |
//! |---|---|---|
//! | BAHouse | [`bahouse`] | Barabási–Albert base + house motifs (exact recipe) |
//! | CiteSeer | [`citeseer`] | 6-block SBM with sparse keyword features |
//! | PPI | [`ppi`] | dense community graph with signature features |
//! | Reddit | [`reddit`] | large power-law community graph |
//! | MUTAG molecules (case study) | [`molecules`] | mutagenic / non-mutagenic molecule graphs |
//! | provenance graph (case study) | [`provenance`] | multi-stage-attack provenance graph |
//!
//! Every dataset is a [`Dataset`]: an attributed, labeled graph plus a
//! train/test split and helpers that train the paper's classifier
//! configurations (3-layer GCN, APPNP) deterministically.

pub mod bahouse;
pub mod citeseer;
pub mod loader;
pub mod molecules;
pub mod ppi;
pub mod provenance;
pub mod reddit;

pub use loader::LoadError;

use rcw_gnn::{Appnp, Gcn, GnnModel, TrainConfig};
use rcw_graph::{Graph, GraphView, NodeId};

/// How large to build a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A few dozen nodes — unit tests.
    Tiny,
    /// A few hundred nodes — integration tests, quick experiments.
    Small,
    /// Thousands of nodes — the benchmark harness (scaled-down "paper" size).
    Full,
}

/// A ready-to-use dataset: graph, split, and metadata.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name ("BAHouse", "CiteSeer-syn", ...).
    pub name: String,
    /// The attributed, labeled graph.
    pub graph: Graph,
    /// Nodes used to train the classifier.
    pub train_nodes: Vec<NodeId>,
    /// Labeled nodes held out from training — the pool the experiments draw
    /// test nodes `VT` from.
    pub test_pool: Vec<NodeId>,
}

impl Dataset {
    /// Number of node features.
    pub fn feature_dim(&self) -> usize {
        self.graph.feature_dim()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.graph.num_classes()
    }

    /// Deterministically picks `n` test nodes from the test pool (wrapping if
    /// the pool is smaller).
    pub fn pick_test_nodes(&self, n: usize, seed: u64) -> Vec<NodeId> {
        if self.test_pool.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n);
        let stride = (seed as usize % self.test_pool.len()).max(1);
        let mut idx = seed as usize % self.test_pool.len();
        for _ in 0..n.min(self.test_pool.len()) {
            while out.contains(&self.test_pool[idx]) {
                idx = (idx + 1) % self.test_pool.len();
            }
            out.push(self.test_pool[idx]);
            idx = (idx + stride) % self.test_pool.len();
        }
        out.sort_unstable();
        out
    }

    /// Trains the paper's GCN configuration (3 convolution layers) on this
    /// dataset. Hidden width is reduced from the paper's 128 to keep the
    /// self-contained build fast; the explanation algorithms are agnostic to
    /// the width.
    pub fn train_gcn(&self, hidden: usize, seed: u64) -> Gcn {
        let dims = [
            self.feature_dim(),
            hidden,
            hidden,
            self.num_classes().max(2),
        ];
        let mut gcn = Gcn::new(&dims, seed);
        gcn.train(
            &GraphView::full(&self.graph),
            &self.train_nodes,
            &training_config(),
        );
        gcn
    }

    /// Trains an APPNP classifier (the model family with tractable k-RCW
    /// verification) on this dataset.
    pub fn train_appnp(&self, hidden: usize, seed: u64) -> Appnp {
        let dims = [self.feature_dim(), hidden, self.num_classes().max(2)];
        let mut appnp = Appnp::new(&dims, 0.15, 12, seed);
        appnp.train(
            &GraphView::full(&self.graph),
            &self.train_nodes,
            &training_config(),
        );
        appnp
    }

    /// Test-pool accuracy of a trained model — used by the harness to report
    /// classifier quality alongside explanation quality.
    pub fn test_accuracy(&self, model: &dyn GnnModel) -> f64 {
        rcw_gnn::accuracy(model, &GraphView::full(&self.graph), &self.test_pool)
    }
}

fn training_config() -> TrainConfig {
    TrainConfig {
        epochs: 120,
        learning_rate: 0.03,
        weight_decay: 5e-4,
        seed: 0,
    }
}

/// Splits the labeled nodes of a graph into train / test-pool deterministically.
pub(crate) fn split(graph: &Graph, train_fraction: f64, seed: u64) -> (Vec<NodeId>, Vec<NodeId>) {
    let labeled: Vec<NodeId> = graph
        .node_ids()
        .filter(|&v| graph.label(v).is_some())
        .collect();
    rcw_gnn::train_test_split(&labeled, train_fraction, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_build_at_tiny_scale() {
        let all = [
            bahouse::build(Scale::Tiny, 1),
            citeseer::build(Scale::Tiny, 1),
            ppi::build(Scale::Tiny, 1),
            reddit::build(Scale::Tiny, 1),
        ];
        for ds in all {
            assert!(ds.graph.num_nodes() > 0, "{} empty", ds.name);
            assert!(ds.graph.num_edges() > 0, "{} has no edges", ds.name);
            assert!(ds.num_classes() >= 2, "{} needs >= 2 classes", ds.name);
            assert!(ds.feature_dim() >= 1, "{} needs features", ds.name);
            assert!(
                !ds.train_nodes.is_empty(),
                "{} has no training nodes",
                ds.name
            );
            assert!(!ds.test_pool.is_empty(), "{} has no test pool", ds.name);
            for t in &ds.test_pool {
                assert!(
                    !ds.train_nodes.contains(t),
                    "{}: split not disjoint",
                    ds.name
                );
            }
        }
    }

    #[test]
    fn pick_test_nodes_is_deterministic_and_unique() {
        let ds = bahouse::build(Scale::Small, 3);
        let a = ds.pick_test_nodes(10, 5);
        let b = ds.pick_test_nodes(10, 5);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(a, dedup);
        assert!(!a.is_empty());
    }

    #[test]
    fn trained_gcn_beats_random_guessing_on_bahouse() {
        let ds = bahouse::build(Scale::Small, 7);
        let gcn = ds.train_gcn(16, 1);
        let acc = ds.test_accuracy(&gcn);
        let chance = 1.0 / ds.num_classes() as f64;
        assert!(
            acc > chance,
            "GCN accuracy {acc} should beat chance {chance} on {}",
            ds.name
        );
    }

    #[test]
    fn trained_appnp_beats_random_guessing_on_citeseer() {
        let ds = citeseer::build(Scale::Tiny, 9);
        let appnp = ds.train_appnp(16, 2);
        let acc = ds.test_accuracy(&appnp);
        let chance = 1.0 / ds.num_classes() as f64;
        assert!(
            acc > chance,
            "APPNP accuracy {acc} should beat chance {chance} on {}",
            ds.name
        );
    }
}
