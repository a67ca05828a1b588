//! # rcw-metrics
//!
//! Evaluation metrics used by the paper's experimental study (§VII):
//!
//! * **Normalized GED** — structural stability of explanations across graph
//!   disturbances (Eq. 3); re-exported from `rcw-graph`.
//! * **Fidelity+** — counterfactual effectiveness: how often removing the
//!   explanation changes the prediction.
//! * **Fidelity−** — factual accuracy: how often the explanation alone
//!   reproduces the prediction (lower is better).
//! * **Explanation size** — `|V| + |E|` of the witness subgraph
//!   (`EdgeSubgraph::size`).
//! * Simple result-table formatting for the experiment harness.

pub mod fidelity;
pub mod table;

pub use fidelity::{fidelity_minus, fidelity_plus, ExplanationEval};
pub use rcw_graph::{ged, normalized_ged};
pub use table::Table;

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_graph::EdgeSubgraph;

    #[test]
    fn reexported_ged_is_usable() {
        let a = EdgeSubgraph::from_edges([(0, 1)]);
        let b = EdgeSubgraph::from_edges([(0, 1), (1, 2)]);
        assert_eq!(ged(&a, &b), 2);
        assert!(normalized_ged(&a, &b) > 0.0);
    }
}
