//! Graph edit distance between witness subgraphs.
//!
//! The paper evaluates robustness with a *normalized GED* (Eq. 3): the number
//! of edits needed to transform one explanation into another, divided by the
//! size (`|V| + |E|`) of the larger one. Because witnesses extracted from the
//! same host graph share node identity, the edit distance reduces to the size
//! of the symmetric difference of node and edge sets — no correspondence
//! search is needed, which keeps the metric exact and fast.

use crate::subgraph::EdgeSubgraph;

/// Raw graph edit distance between two witnesses over the same host graph:
/// number of node insertions/deletions plus edge insertions/deletions.
pub fn ged(a: &EdgeSubgraph, b: &EdgeSubgraph) -> usize {
    let node_diff = a.nodes().symmetric_difference(b.nodes()).count();
    let edge_diff = a.edges().symmetric_difference(b.edges()).len();
    node_diff + edge_diff
}

/// Normalized GED per Eq. 3 of the paper: `GED(a, b) / max(|a|, |b|)` where
/// `|x| = #nodes + #edges`. Two empty witnesses have distance 0. The result is
/// clamped into `[0, 2]`; values above 1 can occur when the witnesses are
/// almost disjoint (symmetric difference can be as large as `|a| + |b|`).
pub fn normalized_ged(a: &EdgeSubgraph, b: &EdgeSubgraph) -> f64 {
    let denom = a.size().max(b.size());
    if denom == 0 {
        return 0.0;
    }
    ged(a, b) as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_witnesses_have_zero_distance() {
        let a = EdgeSubgraph::from_edges([(0, 1), (1, 2)]);
        assert_eq!(ged(&a, &a), 0);
        assert_eq!(normalized_ged(&a, &a), 0.0);
    }

    #[test]
    fn distance_counts_both_nodes_and_edges() {
        let a = EdgeSubgraph::from_edges([(0, 1), (1, 2)]); // nodes {0,1,2}
        let b = EdgeSubgraph::from_edges([(0, 1), (1, 3)]); // nodes {0,1,3}
                                                            // node diff: {2,3} -> 2 ; edge diff: {(1,2),(1,3)} -> 2
        assert_eq!(ged(&a, &b), 4);
        assert!((normalized_ged(&a, &b) - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_witnesses() {
        let a = EdgeSubgraph::from_edges([(0, 1)]);
        let b = EdgeSubgraph::from_edges([(2, 3)]);
        assert_eq!(ged(&a, &b), 6);
        assert!(normalized_ged(&a, &b) <= 2.0);
    }

    #[test]
    fn empty_witnesses() {
        let e = EdgeSubgraph::new();
        let a = EdgeSubgraph::from_edges([(0, 1)]);
        assert_eq!(normalized_ged(&e, &e), 0.0);
        assert_eq!(ged(&e, &a), 3);
        assert_eq!(normalized_ged(&e, &a), 1.0);
    }

    #[test]
    fn symmetry() {
        let a = EdgeSubgraph::from_edges([(0, 1), (1, 2), (2, 3)]);
        let b = EdgeSubgraph::from_edges([(1, 2), (3, 4)]);
        assert_eq!(ged(&a, &b), ged(&b, &a));
        assert_eq!(normalized_ged(&a, &b), normalized_ged(&b, &a));
    }
}
