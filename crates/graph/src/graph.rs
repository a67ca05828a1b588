//! Attributed undirected graphs.
//!
//! [`Graph`] is the central data structure of the workspace: a connected (or
//! not) undirected graph whose nodes carry a feature vector and an optional
//! class label. Adjacency is stored as per-node ordered sets so that all
//! iteration orders are deterministic, which the paper requires of the whole
//! pipeline ("fixed and deterministic GNN").

use crate::csr::{Csr, CsrNorms};
use crate::edge::{norm_edge, Edge};
use rcw_linalg::Matrix;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Node identifier. Nodes are always densely numbered `0..n`.
pub type NodeId = usize;

/// Process-wide epoch counter. Every structural or feature mutation of any
/// graph draws a fresh value, so an epoch observed on one graph is never
/// reused by a different mutation event — epoch equality is a sound cache
/// key across graphs (clones share the epoch of the state they copied).
static GRAPH_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    GRAPH_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// An attributed undirected graph.
#[derive(Clone, Debug)]
pub struct Graph {
    adjacency: Vec<BTreeSet<NodeId>>,
    features: Vec<Vec<f64>>,
    labels: Vec<Option<usize>>,
    num_edges: usize,
    /// Lazily built host CSR, shared by every [`crate::view::GraphView`] over
    /// this graph (their delta-CSR base layer). Structural mutation clears it.
    csr_cache: OnceLock<Csr>,
    /// Lazily built normalization vectors over the host degrees, cleared
    /// together with the CSR cache on structural mutation.
    norms_cache: OnceLock<CsrNorms>,
    /// Structural version: changes whenever the node set or edge set changes.
    epoch: u64,
    /// Feature version: changes whenever node features (or the node set)
    /// change. Edge flips leave it untouched, so feature-only caches (e.g.
    /// APPNP local logits) survive disturbances.
    feature_epoch: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::with_nodes(0)
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` nodes, no edges, and empty feature vectors.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![BTreeSet::new(); n],
            features: vec![Vec::new(); n],
            labels: vec![None; n],
            num_edges: 0,
            csr_cache: OnceLock::new(),
            norms_cache: OnceLock::new(),
            epoch: fresh_epoch(),
            feature_epoch: fresh_epoch(),
        }
    }

    /// The graph's structural epoch. Two graphs reporting the same epoch have
    /// identical node and edge sets (a clone keeps the epoch of the state it
    /// copied; every mutation draws a globally fresh value), which makes the
    /// epoch a sound key for structure-dependent caches such as partitions,
    /// k-hop neighborhoods, and PPR rows.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The graph's feature epoch: like [`Graph::epoch`] but only advanced by
    /// feature (and node-set) changes. Edge disturbances leave it untouched.
    #[inline]
    pub fn feature_epoch(&self) -> u64 {
        self.feature_epoch
    }

    /// The host adjacency as a CSR snapshot, built on first use and reused by
    /// every view, worker, and expand–verify round until the graph mutates.
    pub fn csr(&self) -> &Csr {
        self.csr_cache.get_or_init(|| Csr::from_graph(self))
    }

    /// Cached SpMM normalization vectors over the host degrees, built on
    /// first use and reused (alongside [`Graph::csr`]) by every unmasked-view
    /// forward pass until the graph mutates structurally.
    pub fn norms(&self) -> &CsrNorms {
        self.norms_cache
            .get_or_init(|| CsrNorms::from_csr(self.csr()))
    }

    /// Adds a node with the given features, returning its id.
    pub fn add_node(&mut self, features: Vec<f64>) -> NodeId {
        self.csr_cache.take();
        self.norms_cache.take();
        self.epoch = fresh_epoch();
        self.feature_epoch = fresh_epoch();
        self.adjacency.push(BTreeSet::new());
        self.features.push(features);
        self.labels.push(None);
        self.adjacency.len() - 1
    }

    /// Adds a node with features and a label, returning its id.
    pub fn add_labeled_node(&mut self, features: Vec<f64>, label: usize) -> NodeId {
        let id = self.add_node(features);
        self.labels[id] = Some(label);
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total size `|V| + |E|` as used by the paper's normalized GED.
    #[inline]
    pub fn size(&self) -> usize {
        self.num_nodes() + self.num_edges()
    }

    /// Returns `true` if the node id is valid.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v < self.adjacency.len()
    }

    /// Inserts the undirected edge `(u, v)`. Self-loops are rejected.
    /// Returns `true` if the edge was newly inserted.
    ///
    /// # Panics
    /// Panics if either endpoint is not a valid node.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(self.contains_node(u), "add_edge: node {u} does not exist");
        assert!(self.contains_node(v), "add_edge: node {v} does not exist");
        if u == v {
            return false;
        }
        let inserted = self.adjacency[u].insert(v);
        if inserted {
            self.adjacency[v].insert(u);
            self.num_edges += 1;
            self.csr_cache.take();
            self.norms_cache.take();
            self.epoch = fresh_epoch();
        }
        inserted
    }

    /// Removes the undirected edge `(u, v)`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.contains_node(u) || !self.contains_node(v) {
            return false;
        }
        let removed = self.adjacency[u].remove(&v);
        if removed {
            self.adjacency[v].remove(&u);
            self.num_edges -= 1;
            self.csr_cache.take();
            self.norms_cache.take();
            self.epoch = fresh_epoch();
        }
        removed
    }

    /// Returns `true` if the undirected edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.contains_node(u) && self.adjacency[u].contains(&v)
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v].len()
    }

    /// Average degree `2|E| / |V|` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Ordered iterator over the neighbors of `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[v].iter().copied()
    }

    /// Collects the neighbors of `v` into a vector.
    pub fn neighbors_vec(&self, v: NodeId) -> Vec<NodeId> {
        self.adjacency[v].iter().copied().collect()
    }

    /// Iterator over all undirected edges, each reported once with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Collects all edges into a vector.
    pub fn edge_vec(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes()
    }

    /// Feature vector of node `v`.
    #[inline]
    pub fn features(&self, v: NodeId) -> &[f64] {
        &self.features[v]
    }

    /// Sets the feature vector of node `v`.
    pub fn set_features(&mut self, v: NodeId, features: Vec<f64>) {
        self.features[v] = features;
        self.feature_epoch = fresh_epoch();
    }

    /// Label of node `v` (if assigned).
    #[inline]
    pub fn label(&self, v: NodeId) -> Option<usize> {
        self.labels[v]
    }

    /// Sets the label of node `v`.
    pub fn set_label(&mut self, v: NodeId, label: usize) {
        self.labels[v] = Some(label);
    }

    /// Number of features per node, taken from node 0 (0 if empty graph).
    pub fn feature_dim(&self) -> usize {
        self.features.first().map(|f| f.len()).unwrap_or(0)
    }

    /// Number of distinct labels present (max label + 1), or 0 if unlabeled.
    pub fn num_classes(&self) -> usize {
        self.labels
            .iter()
            .flatten()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// Node feature matrix `X` of shape `|V| x F`.
    ///
    /// Nodes whose feature vector is shorter than the maximum dimension are
    /// zero-padded, so graphs built incrementally stay usable.
    pub fn feature_matrix(&self) -> Matrix {
        let n = self.num_nodes();
        let f = self.features.iter().map(|x| x.len()).max().unwrap_or(0);
        let mut m = Matrix::zeros(n, f);
        for (i, feats) in self.features.iter().enumerate() {
            for (j, &x) in feats.iter().enumerate() {
                m.set(i, j, x);
            }
        }
        m
    }

    /// Labels of all nodes as a vector.
    pub fn labels_vec(&self) -> Vec<Option<usize>> {
        self.labels.clone()
    }

    /// Nodes carrying a specific label.
    pub fn nodes_with_label(&self, label: usize) -> Vec<NodeId> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (*l == Some(label)).then_some(i))
            .collect()
    }

    /// All node pairs `(u, v)` with `u < v` that are *not* edges (candidate
    /// insertions for disturbances).
    pub fn non_edges(&self) -> Vec<Edge> {
        let n = self.num_nodes();
        let mut out = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if !self.has_edge(u, v) {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Applies a set of edge flips, returning a new graph. An existing edge in
    /// the flip set is removed; a missing one is inserted.
    pub fn flip_edges(&self, flips: &[Edge]) -> Graph {
        let mut g = self.clone();
        g.flip_edges_in_place(flips);
        g
    }

    /// Applies a set of edge flips to this graph in place — the mutation-epoch
    /// entry point for disturbances that actually land on the host graph
    /// rather than on a view. Returns the number of pairs that changed state.
    /// Invalid pairs are ignored.
    pub fn flip_edges_in_place(&mut self, flips: &[Edge]) -> usize {
        let mut applied = 0;
        for &(u, v) in flips {
            let (u, v) = norm_edge(u, v);
            if u == v || !self.contains_node(u) || !self.contains_node(v) {
                continue;
            }
            let changed = if self.has_edge(u, v) {
                self.remove_edge(u, v)
            } else {
                self.add_edge(u, v)
            };
            if changed {
                applied += 1;
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = Graph::with_nodes(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge must not double count");
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = Graph::with_nodes(2);
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn degrees_and_size() {
        let g = triangle();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.size(), 6);
    }

    #[test]
    fn edges_are_sorted_and_unique() {
        let g = triangle();
        assert_eq!(g.edge_vec(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn labels_and_features() {
        let mut g = Graph::new();
        let a = g.add_labeled_node(vec![1.0, 0.0], 1);
        let b = g.add_node(vec![0.0, 1.0]);
        g.set_label(b, 0);
        assert_eq!(g.label(a), Some(1));
        assert_eq!(g.label(b), Some(0));
        assert_eq!(g.num_classes(), 2);
        assert_eq!(g.feature_dim(), 2);
        assert_eq!(g.nodes_with_label(1), vec![a]);
    }

    #[test]
    fn feature_matrix_pads_ragged_rows() {
        let mut g = Graph::new();
        g.add_node(vec![1.0, 2.0, 3.0]);
        g.add_node(vec![4.0]);
        let x = g.feature_matrix();
        assert_eq!(x.shape(), (2, 3));
        assert_eq!(x.row(1), &[4.0, 0.0, 0.0]);
    }

    #[test]
    fn non_edges_complement_edges() {
        let g = triangle();
        assert!(g.non_edges().is_empty());
        let mut g2 = Graph::with_nodes(3);
        g2.add_edge(0, 1);
        assert_eq!(g2.non_edges(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn flip_edges_inserts_and_removes() {
        let g = triangle();
        let flipped = g.flip_edges(&[(0, 1)]);
        assert!(!flipped.has_edge(0, 1));
        assert_eq!(flipped.num_edges(), 2);
        let mut g2 = Graph::with_nodes(3);
        g2.add_edge(0, 1);
        let f2 = g2.flip_edges(&[(1, 2), (0, 1)]);
        assert!(f2.has_edge(1, 2));
        assert!(!f2.has_edge(0, 1));
        // original untouched
        assert!(g2.has_edge(0, 1));
    }

    #[test]
    fn flip_edges_ignores_invalid_pairs() {
        let g = triangle();
        let f = g.flip_edges(&[(0, 0), (0, 99)]);
        assert_eq!(f.num_edges(), g.num_edges());
    }

    #[test]
    fn flip_edges_in_place_counts_applied_pairs() {
        let mut g = triangle();
        let applied = g.flip_edges_in_place(&[(0, 1), (0, 0), (0, 99)]);
        assert_eq!(applied, 1);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.flip_edges_in_place(&[(0, 1)]), 1, "re-insertion counts");
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn structural_epoch_advances_on_mutation_only() {
        let mut g = triangle();
        let e0 = g.epoch();
        assert_eq!(g.epoch(), e0, "reads do not advance the epoch");
        let _ = g.csr();
        assert_eq!(g.epoch(), e0, "CSR materialization is a read");
        g.add_edge(0, 1); // already present
        assert_eq!(g.epoch(), e0, "no-op insert keeps the epoch");
        g.remove_edge(1, 2);
        let e1 = g.epoch();
        assert_ne!(e1, e0);
        g.add_node(vec![1.0]);
        assert_ne!(g.epoch(), e1, "node additions are structural");
    }

    #[test]
    fn feature_epoch_is_independent_of_edge_flips() {
        let mut g = triangle();
        let f0 = g.feature_epoch();
        g.remove_edge(0, 1);
        assert_eq!(g.feature_epoch(), f0, "edge flips keep feature caches");
        g.set_features(0, vec![3.0]);
        assert_ne!(g.feature_epoch(), f0);
    }

    #[test]
    fn clones_share_epochs_until_they_diverge() {
        let g = triangle();
        let mut c = g.clone();
        assert_eq!(c.epoch(), g.epoch(), "identical content, identical epoch");
        c.remove_edge(0, 1);
        assert_ne!(c.epoch(), g.epoch());
        // fresh graphs never reuse an epoch value
        assert_ne!(Graph::with_nodes(3).epoch(), Graph::with_nodes(3).epoch());
    }
}
