//! # robogexp
//!
//! Umbrella crate for the Rust reproduction of *"Generating Robust
//! Counterfactual Witnesses for Graph Neural Networks"* (ICDE 2024).
//!
//! A **k-robust counterfactual witness (k-RCW)** of a GNN node classification
//! is a subgraph that is simultaneously:
//! * **factual** — evaluating the classifier on the witness alone reproduces
//!   the test nodes' labels,
//! * **counterfactual** — removing the witness's edges from the graph flips
//!   those labels, and
//! * **robust** — both properties survive any disturbance that flips up to
//!   `k` node pairs outside the witness.
//!
//! This crate re-exports the whole workspace under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `rcw-graph` | attributed graphs, views, disturbances, partitions |
//! | [`linalg`] | `rcw-linalg` | dense matrices, solvers, activations |
//! | [`gnn`] | `rcw-gnn` | GCN / APPNP / GraphSAGE / GAT, training |
//! | [`pagerank`] | `rcw-pagerank` | PPR, policy iteration |
//! | [`core`] | `rcw-core` | witnesses, verification, RoboGExp, paraRoboGExp |
//! | [`baselines`] | `rcw-baselines` | CF², CF-GNNExplainer re-implementations |
//! | [`metrics`] | `rcw-metrics` | GED, Fidelity±, result tables |
//! | [`datasets`] | `rcw-datasets` | synthetic BAHouse / CiteSeer / PPI / Reddit, molecules, provenance |
//! | [`server`] | `rcw-server` | std-only HTTP serving layer over `WitnessEngine` (wire codec, pool, client) |
//!
//! See `examples/quickstart.rs` for an end-to-end walk-through and
//! `crates/bench` for the experiment harness that regenerates every table and
//! figure of the paper.

pub use rcw_baselines as baselines;
pub use rcw_core as core;
pub use rcw_datasets as datasets;
pub use rcw_gnn as gnn;
pub use rcw_graph as graph;
pub use rcw_linalg as linalg;
pub use rcw_metrics as metrics;
pub use rcw_pagerank as pagerank;
pub use rcw_server as server;

/// Most-used types, for `use robogexp::prelude::*`.
pub mod prelude {
    pub use rcw_baselines::{Cf2Explainer, CfGnnExplainer};
    pub use rcw_core::{
        ParaRoboGExp, RcwConfig, RoboGExp, VerifyOutcome, Witness, WitnessEngine, WitnessLevel,
    };
    pub use rcw_datasets::{Dataset, Scale};
    pub use rcw_gnn::{Appnp, Gcn, GnnModel, TrainConfig};
    pub use rcw_graph::{EdgeSet, EdgeSubgraph, Graph, GraphView, NodeId};
    pub use rcw_metrics::{fidelity_minus, fidelity_plus, normalized_ged};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        // compile-time smoke test: the umbrella exposes everything needed for
        // the quickstart without reaching into individual crates.
        let cfg = RcwConfig::with_budgets(2, 1);
        assert_eq!(cfg.k, 2);
        let g = Graph::with_nodes(3);
        assert_eq!(g.num_nodes(), 3);
        let _scale = Scale::Tiny;
    }
}
