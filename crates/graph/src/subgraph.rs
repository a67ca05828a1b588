//! Edge subgraphs (witness structures).
//!
//! A witness `Gw` in the paper is a subgraph of `G` identified by a set of
//! edges plus the set of nodes it covers (test nodes are always members even
//! when they have no incident witness edge — a single test node is the
//! "trivial factual witness"). [`EdgeSubgraph`] captures exactly that.

use crate::edge::{Edge, EdgeSet};
use crate::graph::{Graph, NodeId};
use std::collections::BTreeSet;

/// A subgraph of a host graph, represented by explicit node and edge sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeSubgraph {
    nodes: BTreeSet<NodeId>,
    edges: EdgeSet,
}

impl EdgeSubgraph {
    /// Creates an empty subgraph.
    pub fn new() -> Self {
        EdgeSubgraph::default()
    }

    /// Creates a subgraph containing only the given nodes (no edges). This is
    /// the trivial witness `Gs = VT` that `RoboGExp` starts from.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        EdgeSubgraph {
            nodes: nodes.into_iter().collect(),
            edges: EdgeSet::new(),
        }
    }

    /// Creates a subgraph from edges; the node set is the edges' endpoints.
    pub fn from_edges<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        let es = EdgeSet::from_iter(edges);
        let nodes = es.endpoints();
        EdgeSubgraph { nodes, edges: es }
    }

    /// Creates a subgraph from an explicit node list plus edges; the node
    /// set is the union of the list and the edges' endpoints. Equivalent to
    /// [`EdgeSubgraph::from_edges`] followed by [`EdgeSubgraph::add_node`]
    /// per node, but bulk-builds both sets in one sorting pass — the wire
    /// decoders sit on the serving hot path.
    pub fn from_nodes_and_edges<N, E>(nodes: N, edges: E) -> Self
    where
        N: IntoIterator<Item = NodeId>,
        E: IntoIterator<Item = Edge>,
    {
        let es = EdgeSet::from_iter(edges);
        let nodes: BTreeSet<NodeId> = nodes
            .into_iter()
            .chain(es.iter().flat_map(|(u, v)| [u, v]))
            .collect();
        EdgeSubgraph { nodes, edges: es }
    }

    /// Creates the full subgraph covering an entire graph (the trivial k-RCW `G`).
    pub fn full(graph: &Graph) -> Self {
        EdgeSubgraph {
            nodes: graph.node_ids().collect(),
            edges: EdgeSet::from_iter(graph.edges()),
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, v: NodeId) {
        self.nodes.insert(v);
    }

    /// Adds an edge (and both endpoints). Returns `true` if newly added.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        self.nodes.insert(u);
        self.nodes.insert(v);
        self.edges.insert(u, v)
    }

    /// Removes an edge (endpoints stay). Returns `true` if it was present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.edges.remove(u, v)
    }

    /// Whether the node is part of the subgraph.
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// Whether the edge is part of the subgraph.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains(u, v)
    }

    /// Node set.
    pub fn nodes(&self) -> &BTreeSet<NodeId> {
        &self.nodes
    }

    /// Edge set.
    pub fn edges(&self) -> &EdgeSet {
        &self.edges
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Size `|V| + |E|`, the quantity the paper's normalized GED divides by.
    pub fn size(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// Whether the subgraph has no nodes and no edges.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// A witness is "non-trivial" per the paper when it has at least one edge
    /// and is not the whole graph.
    pub fn is_nontrivial(&self, host: &Graph) -> bool {
        !self.edges.is_empty() && self.edges.len() < host.num_edges()
    }

    /// Union with another subgraph.
    pub fn union(&self, other: &EdgeSubgraph) -> EdgeSubgraph {
        EdgeSubgraph {
            nodes: self.nodes.union(&other.nodes).copied().collect(),
            edges: self.edges.union(&other.edges),
        }
    }

    /// Extends `self` with all nodes and edges of `other`.
    pub fn extend(&mut self, other: &EdgeSubgraph) {
        self.nodes.extend(other.nodes.iter().copied());
        self.edges.extend(&other.edges);
    }

    /// Materializes the subgraph as a standalone [`Graph`] that keeps the host
    /// graph's node ids, features, and labels, but only the subgraph's edges.
    /// Nodes outside the subgraph become isolated nodes.
    pub fn materialize(&self, host: &Graph) -> Graph {
        let mut g = Graph::with_nodes(host.num_nodes());
        for v in host.node_ids() {
            g.set_features(v, host.features(v).to_vec());
            if let Some(l) = host.label(v) {
                g.set_label(v, l);
            }
        }
        for (u, v) in self.edges.iter() {
            if host.contains_node(u) && host.contains_node(v) {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Validates that every node and edge of the subgraph exists in `host`.
    pub fn is_subgraph_of(&self, host: &Graph) -> bool {
        self.nodes.iter().all(|&v| host.contains_node(v))
            && self.edges.iter().all(|(u, v)| host.has_edge(u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn from_nodes_has_no_edges() {
        let s = EdgeSubgraph::from_nodes([2, 0]);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.num_edges(), 0);
        assert!(s.contains_node(0));
        assert!(!s.contains_node(1));
    }

    #[test]
    fn from_edges_collects_endpoints() {
        let s = EdgeSubgraph::from_edges([(1, 0), (1, 2)]);
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_edges(), 2);
        assert!(s.contains_edge(0, 1));
        assert_eq!(s.size(), 5);
    }

    #[test]
    fn full_covers_graph() {
        let g = path4();
        let s = EdgeSubgraph::full(&g);
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.num_edges(), 3);
        assert!(!s.is_nontrivial(&g), "the whole graph is a trivial witness");
    }

    #[test]
    fn nontrivial_requires_an_edge_and_not_all_edges() {
        let g = path4();
        let empty = EdgeSubgraph::from_nodes([0]);
        assert!(!empty.is_nontrivial(&g));
        let some = EdgeSubgraph::from_edges([(0, 1)]);
        assert!(some.is_nontrivial(&g));
    }

    #[test]
    fn union_and_extend() {
        let a = EdgeSubgraph::from_edges([(0, 1)]);
        let b = EdgeSubgraph::from_edges([(1, 2)]);
        let u = a.union(&b);
        assert_eq!(u.num_edges(), 2);
        assert_eq!(u.num_nodes(), 3);
        let mut c = a.clone();
        c.extend(&b);
        assert_eq!(c, u);
    }

    #[test]
    fn materialize_keeps_node_identity() {
        let mut g = path4();
        g.set_label(3, 1);
        g.set_features(2, vec![7.0]);
        let s = EdgeSubgraph::from_edges([(1, 2)]);
        let m = s.materialize(&g);
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(m.num_edges(), 1);
        assert!(m.has_edge(1, 2));
        assert!(!m.has_edge(0, 1));
        assert_eq!(m.label(3), Some(1));
        assert_eq!(m.features(2), &[7.0]);
    }

    #[test]
    fn subgraph_validation() {
        let g = path4();
        let ok = EdgeSubgraph::from_edges([(0, 1), (2, 3)]);
        assert!(ok.is_subgraph_of(&g));
        let bad_edge = EdgeSubgraph::from_edges([(0, 3)]);
        assert!(!bad_edge.is_subgraph_of(&g));
        let bad_node = EdgeSubgraph::from_nodes([17]);
        assert!(!bad_node.is_subgraph_of(&g));
    }
}
