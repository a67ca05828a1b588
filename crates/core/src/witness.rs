//! Witness structures and their status.
//!
//! A witness is a subgraph of the host graph associated with a set of test
//! nodes and the labels the fixed classifier assigns to them over the full
//! graph. The three properties of interest (§II-B):
//!
//! * **factual** — evaluating the model on the witness alone reproduces every
//!   test node's label;
//! * **counterfactual** — additionally, removing the witness's edges from the
//!   graph changes every test node's label;
//! * **k-robust** — additionally, both properties survive every admissible
//!   k-disturbance of the remainder of the graph.

use rcw_graph::{EdgeSet, EdgeSubgraph, Graph, NodeId};

/// A candidate explanation: a subgraph plus the test nodes it explains and the
/// labels the classifier assigned to them on the full graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Witness {
    /// The explanation subgraph `Gs`.
    pub subgraph: EdgeSubgraph,
    /// The test nodes `VT` this witness explains.
    pub test_nodes: Vec<NodeId>,
    /// `M(v, G)` for each test node, in the same order as `test_nodes`.
    pub labels: Vec<usize>,
}

impl Witness {
    /// Creates a witness from its parts.
    ///
    /// # Panics
    /// Panics if `test_nodes` and `labels` have different lengths.
    pub fn new(subgraph: EdgeSubgraph, test_nodes: Vec<NodeId>, labels: Vec<usize>) -> Self {
        assert_eq!(
            test_nodes.len(),
            labels.len(),
            "Witness::new: test node / label length mismatch"
        );
        let mut subgraph = subgraph;
        for &v in &test_nodes {
            subgraph.add_node(v);
        }
        Witness {
            subgraph,
            test_nodes,
            labels,
        }
    }

    /// The trivial witness containing only the test nodes (no edges).
    pub fn trivial_nodes(test_nodes: Vec<NodeId>, labels: Vec<usize>) -> Self {
        Witness::new(
            EdgeSubgraph::from_nodes(test_nodes.clone()),
            test_nodes,
            labels,
        )
    }

    /// The trivial witness equal to the whole graph (always a k-RCW, never
    /// interesting). `RoboGExp` falls back to this when no non-trivial witness
    /// exists.
    pub fn trivial_full(graph: &Graph, test_nodes: Vec<NodeId>, labels: Vec<usize>) -> Self {
        Witness::new(EdgeSubgraph::full(graph), test_nodes, labels)
    }

    /// The same subgraph explaining only `node` (labelled `label`): the
    /// one-node witness per-node checks verify (Lemma 6 makes them
    /// independent).
    pub fn single_node(&self, node: NodeId, label: usize) -> Self {
        Witness::new(self.subgraph.clone(), vec![node], vec![label])
    }

    /// Label recorded for test node `v`, if `v` is one of the test nodes.
    pub fn label_of(&self, v: NodeId) -> Option<usize> {
        self.test_nodes
            .iter()
            .position(|&t| t == v)
            .map(|i| self.labels[i])
    }

    /// The witness's edge set (`Gs`'s edges).
    pub fn edges(&self) -> &EdgeSet {
        self.subgraph.edges()
    }

    /// Number of nodes plus edges — the "size" reported in the paper's tables.
    pub fn size(&self) -> usize {
        self.subgraph.size()
    }

    /// Whether this witness is non-trivial with respect to a host graph: at
    /// least one edge and not all of the host's edges.
    pub fn is_nontrivial(&self, host: &Graph) -> bool {
        self.subgraph.is_nontrivial(host)
    }
}

/// The robustness level established for a witness by a verification run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessLevel {
    /// Not even factual.
    NotAWitness,
    /// Factual but not counterfactual.
    Factual,
    /// Factual and counterfactual (a CW, i.e. a 0-RCW).
    Counterfactual,
    /// Factual, counterfactual, and robust to every admissible k-disturbance
    /// that the verifier explored.
    Robust,
}

impl WitnessLevel {
    /// Strength ordering of the levels: `NotAWitness < Factual <
    /// Counterfactual < Robust`. Used wherever the weakest per-node outcome
    /// must win (multi-node aggregation, repair decisions).
    pub fn rank(self) -> u8 {
        match self {
            WitnessLevel::NotAWitness => 0,
            WitnessLevel::Factual => 1,
            WitnessLevel::Counterfactual => 2,
            WitnessLevel::Robust => 3,
        }
    }
}

/// Outcome of verifying one witness against one test node (or a whole test set).
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyOutcome {
    /// The strongest level established.
    pub level: WitnessLevel,
    /// A disturbance disproving robustness, when one was found.
    pub counterexample: Option<EdgeSet>,
    /// Number of model inference calls spent.
    pub inference_calls: usize,
    /// Number of disturbances examined.
    pub disturbances_checked: usize,
}

impl VerifyOutcome {
    /// Convenience constructor for a given level with zero counters.
    pub fn at_level(level: WitnessLevel) -> Self {
        VerifyOutcome {
            level,
            counterexample: None,
            inference_calls: 0,
            disturbances_checked: 0,
        }
    }

    /// Whether the witness was verified to be a k-RCW.
    pub fn is_robust(&self) -> bool {
        self.level == WitnessLevel::Robust
    }

    /// Whether the witness is at least a counterfactual witness.
    pub fn is_counterfactual(&self) -> bool {
        matches!(
            self.level,
            WitnessLevel::Counterfactual | WitnessLevel::Robust
        )
    }

    /// Whether the witness is at least factual.
    pub fn is_factual(&self) -> bool {
        !matches!(self.level, WitnessLevel::NotAWitness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_always_contains_its_test_nodes() {
        let w = Witness::new(EdgeSubgraph::from_edges([(1, 2)]), vec![5], vec![0]);
        assert!(w.subgraph.contains_node(5));
        assert_eq!(w.label_of(5), Some(0));
        assert_eq!(w.label_of(1), None);
    }

    #[test]
    fn single_node_keeps_the_subgraph_and_one_test_node() {
        let w = Witness::new(EdgeSubgraph::from_edges([(1, 2)]), vec![5, 7], vec![0, 1]);
        let single = w.single_node(7, 1);
        assert_eq!(single.subgraph, w.subgraph);
        assert_eq!(single.test_nodes, vec![7]);
        assert_eq!(single.labels, vec![1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_rejected() {
        Witness::new(EdgeSubgraph::new(), vec![1, 2], vec![0]);
    }

    #[test]
    fn trivial_witnesses() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let nodes = Witness::trivial_nodes(vec![0], vec![1]);
        assert_eq!(nodes.size(), 1);
        assert!(!nodes.is_nontrivial(&g));
        let full = Witness::trivial_full(&g, vec![0], vec![1]);
        assert_eq!(full.size(), 5);
        assert!(!full.is_nontrivial(&g));
    }

    #[test]
    fn level_predicates() {
        assert!(VerifyOutcome::at_level(WitnessLevel::Robust).is_robust());
        assert!(VerifyOutcome::at_level(WitnessLevel::Robust).is_counterfactual());
        assert!(VerifyOutcome::at_level(WitnessLevel::Counterfactual).is_counterfactual());
        assert!(!VerifyOutcome::at_level(WitnessLevel::Counterfactual).is_robust());
        assert!(VerifyOutcome::at_level(WitnessLevel::Factual).is_factual());
        assert!(!VerifyOutcome::at_level(WitnessLevel::NotAWitness).is_factual());
        let levels = [
            WitnessLevel::NotAWitness,
            WitnessLevel::Factual,
            WitnessLevel::Counterfactual,
            WitnessLevel::Robust,
        ];
        assert!(levels.windows(2).all(|w| w[0].rank() < w[1].rank()));
    }
}
