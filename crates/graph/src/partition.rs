//! Edge-cut graph partitioning with k-hop border replication.
//!
//! `paraRoboGExp` (§VI) fragments `G` into `n` partitions through an edge-cut
//! partition; every worker owns one fragment, and for each border node the
//! k-hop neighborhood is duplicated into the fragment so that local inference
//! needs no communication. This module provides that "inference preserving
//! partition".

use crate::edge::Edge;
use crate::graph::{Graph, NodeId};
use crate::traversal::k_hop_neighborhood;
use std::collections::{BTreeSet, VecDeque};

/// One fragment of an edge-cut partition.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Fragment index.
    pub id: usize,
    /// Nodes owned by this fragment (each node is owned by exactly one fragment).
    pub owned: BTreeSet<NodeId>,
    /// Owned nodes plus replicated k-hop neighborhoods of border nodes.
    pub nodes: BTreeSet<NodeId>,
    /// Edges with both endpoints inside `nodes` (global node ids).
    pub edges: Vec<Edge>,
}

impl Fragment {
    /// Whether `v` is visible to this fragment (owned or replicated).
    pub fn covers(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }
}

/// An edge-cut partition of a graph.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Owner fragment of every node.
    pub owner: Vec<usize>,
    /// The fragments.
    pub fragments: Vec<Fragment>,
}

impl Partition {
    /// Number of fragments.
    pub fn num_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Repairs the partition after a disturbance that flipped pairs incident
    /// to `touched`, instead of re-running the balanced BFS from scratch.
    /// Node ownership is preserved (small disturbances do not warrant
    /// re-balancing); only the border replication and edge lists of fragments
    /// whose visible region intersects the touched set are rebuilt. Returns
    /// the refreshed fragment ids, or `None` when the node set changed — the
    /// caller must rebuild the partition in that case.
    pub fn refresh_after_disturbance(
        &mut self,
        graph: &Graph,
        touched: &BTreeSet<NodeId>,
        hops: usize,
    ) -> Option<Vec<usize>> {
        if self.owner.len() != graph.num_nodes() {
            return None;
        }
        let affected: BTreeSet<usize> = self
            .fragments
            .iter()
            .filter(|f| touched.iter().any(|&v| f.covers(v)))
            .map(|f| f.id)
            .chain(
                touched
                    .iter()
                    .map(|&v| self.owner[v])
                    .filter(|&p| p < self.fragments.len()),
            )
            .collect();
        if affected.is_empty() {
            return Some(Vec::new());
        }
        // Rebuild replication for the affected fragments: reset to the owned
        // set, then re-replicate the k-hop neighborhoods of cut-edge
        // endpoints, exactly as the full build does.
        for &fid in &affected {
            let frag = &mut self.fragments[fid];
            frag.nodes = frag.owned.clone();
        }
        for (u, v) in graph.edges() {
            let (pu, pv) = (self.owner[u], self.owner[v]);
            if pu == pv {
                continue;
            }
            for &(node, part) in &[(u, pv), (v, pu)] {
                if part < self.fragments.len() && affected.contains(&part) {
                    let hood = k_hop_neighborhood(graph, node, hops);
                    self.fragments[part].nodes.extend(hood);
                }
            }
        }
        for &fid in &affected {
            let frag = &mut self.fragments[fid];
            frag.edges = graph
                .edges()
                .filter(|&(u, v)| frag.nodes.contains(&u) && frag.nodes.contains(&v))
                .collect();
        }
        Some(affected.into_iter().collect())
    }
}

/// Builds an edge-cut partition into `num_parts` fragments using balanced BFS
/// growth, then replicates the `hops`-hop neighborhood of every border node
/// into each fragment that owns one of its neighbors.
///
/// # Panics
/// Panics if `num_parts == 0`.
pub fn edge_cut_partition(graph: &Graph, num_parts: usize, hops: usize) -> Partition {
    assert!(num_parts > 0, "edge_cut_partition: num_parts must be > 0");
    let n = graph.num_nodes();
    let parts = num_parts.min(n.max(1));
    let mut owner = vec![usize::MAX; n];

    // Balanced multi-source BFS: seed one queue per part with evenly spaced
    // nodes, then grow the smallest part first.
    let mut queues: Vec<VecDeque<NodeId>> = vec![VecDeque::new(); parts];
    let mut sizes = vec![0usize; parts];
    if n > 0 {
        for (p, queue) in queues.iter_mut().enumerate() {
            let seed = p * n / parts;
            queue.push_back(seed);
        }
        let mut assigned = 0;
        let mut next_unassigned = 0;
        while assigned < n {
            // pick the smallest part that still has frontier work
            let mut made_progress = false;
            let order: Vec<usize> = {
                let mut idx: Vec<usize> = (0..parts).collect();
                idx.sort_by_key(|&p| sizes[p]);
                idx
            };
            for p in order {
                while let Some(u) = queues[p].pop_front() {
                    if owner[u] != usize::MAX {
                        continue;
                    }
                    owner[u] = p;
                    sizes[p] += 1;
                    assigned += 1;
                    for v in graph.neighbors(u) {
                        if owner[v] == usize::MAX {
                            queues[p].push_back(v);
                        }
                    }
                    made_progress = true;
                    break;
                }
                if made_progress {
                    break;
                }
            }
            if !made_progress {
                // disconnected remainder: seed the smallest part with the next
                // unassigned node
                while next_unassigned < n && owner[next_unassigned] != usize::MAX {
                    next_unassigned += 1;
                }
                if next_unassigned >= n {
                    break;
                }
                let smallest = (0..parts).min_by_key(|&p| sizes[p]).unwrap_or(0);
                queues[smallest].push_back(next_unassigned);
            }
        }
    }

    // Build fragments: owned sets, then replicate border k-hop neighborhoods.
    let mut fragments: Vec<Fragment> = (0..parts)
        .map(|id| Fragment {
            id,
            owned: BTreeSet::new(),
            nodes: BTreeSet::new(),
            edges: Vec::new(),
        })
        .collect();
    for (v, &p) in owner.iter().enumerate() {
        if p != usize::MAX {
            fragments[p].owned.insert(v);
            fragments[p].nodes.insert(v);
        }
    }
    // border nodes: endpoints of cut edges
    for (u, v) in graph.edges() {
        let (pu, pv) = (owner[u], owner[v]);
        if pu != pv {
            // replicate the k-hop neighborhood of each endpoint into the other's fragment
            for &(node, part) in &[(u, pv), (v, pu)] {
                let hood = k_hop_neighborhood(graph, node, hops);
                fragments[part].nodes.extend(hood);
            }
        }
    }
    // fragment edge lists
    for frag in &mut fragments {
        frag.edges = graph
            .edges()
            .filter(|&(u, v)| frag.nodes.contains(&u) && frag.nodes.contains(&v))
            .collect();
    }

    Partition { owner, fragments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::barabasi_albert;

    #[test]
    fn every_node_owned_exactly_once() {
        let g = barabasi_albert(80, 2, 4);
        let p = edge_cut_partition(&g, 4, 1);
        assert_eq!(p.num_fragments(), 4);
        let mut seen = vec![0; g.num_nodes()];
        for f in &p.fragments {
            for &v in &f.owned {
                seen[v] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each node owned exactly once");
    }

    #[test]
    fn fragments_are_reasonably_balanced() {
        let g = barabasi_albert(100, 2, 1);
        let p = edge_cut_partition(&g, 4, 1);
        for f in &p.fragments {
            assert!(
                f.owned.len() >= 10,
                "fragment {} too small: {}",
                f.id,
                f.owned.len()
            );
            assert!(
                f.owned.len() <= 60,
                "fragment {} too large: {}",
                f.id,
                f.owned.len()
            );
        }
    }

    #[test]
    fn border_replication_covers_cut_neighbors() {
        let g = barabasi_albert(60, 2, 2);
        let p = edge_cut_partition(&g, 3, 1);
        for (u, v) in g.edges() {
            let (pu, pv) = (p.owner[u], p.owner[v]);
            if pu != pv {
                assert!(p.fragments[pu].covers(v), "{v} replicated into {pu}");
                assert!(p.fragments[pv].covers(u), "{u} replicated into {pv}");
            }
        }
        assert!(g.edges().any(|(u, v)| p.owner[u] != p.owner[v]));
    }

    #[test]
    fn single_partition_is_whole_graph() {
        let g = barabasi_albert(30, 2, 5);
        let p = edge_cut_partition(&g, 1, 2);
        assert_eq!(p.fragments[0].owned.len(), 30);
        assert!(g.edges().all(|(u, v)| p.owner[u] == p.owner[v]));
        assert_eq!(p.fragments[0].edges.len(), g.num_edges());
    }

    #[test]
    fn more_parts_than_nodes_is_clamped() {
        let g = barabasi_albert(5, 1, 0);
        let p = edge_cut_partition(&g, 16, 1);
        assert_eq!(p.num_fragments(), 5);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut g = Graph::with_nodes(10);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        // nodes 4..10 isolated
        let p = edge_cut_partition(&g, 3, 1);
        let owned: usize = p.fragments.iter().map(|f| f.owned.len()).sum();
        assert_eq!(owned, 10);
    }

    #[test]
    #[should_panic(expected = "num_parts")]
    fn zero_parts_rejected() {
        let g = barabasi_albert(10, 1, 0);
        edge_cut_partition(&g, 0, 1);
    }

    #[test]
    fn refresh_preserves_replication_invariants() {
        let mut g = barabasi_albert(60, 2, 2);
        let mut p = edge_cut_partition(&g, 3, 1);
        // disturb: remove one cut edge and insert a fresh cross pair
        let (cu, cv) = g
            .edges()
            .find(|&(u, v)| p.owner[u] != p.owner[v])
            .expect("partition has a cut edge");
        g.remove_edge(cu, cv);
        let (iu, iv) = g
            .non_edges()
            .into_iter()
            .find(|&(u, v)| p.owner[u] != p.owner[v])
            .expect("a cross non-edge exists");
        g.add_edge(iu, iv);
        let touched: BTreeSet<NodeId> = [cu, cv, iu, iv].into_iter().collect();
        let refreshed = p
            .refresh_after_disturbance(&g, &touched, 1)
            .expect("node set unchanged");
        assert!(!refreshed.is_empty());
        // the full-build invariants hold on the repaired partition
        for (u, v) in g.edges() {
            let (pu, pv) = (p.owner[u], p.owner[v]);
            if pu != pv {
                assert!(p.fragments[pu].covers(v), "{v} replicated into {pu}");
                assert!(p.fragments[pv].covers(u), "{u} replicated into {pv}");
            }
        }
        for f in &p.fragments {
            let induced: Vec<Edge> = g
                .edges()
                .filter(|&(u, v)| f.nodes.contains(&u) && f.nodes.contains(&v))
                .collect();
            assert_eq!(f.edges, induced, "fragment {} edge list stale", f.id);
        }
    }

    /// Rebuilds one fragment's replicated node set from scratch with the
    /// same recipe the full build uses — the oracle the incremental refresh
    /// must match.
    fn rebuilt_nodes(g: &Graph, p: &Partition, fid: usize, hops: usize) -> BTreeSet<NodeId> {
        let mut nodes = p.fragments[fid].owned.clone();
        for (u, v) in g.edges() {
            let (pu, pv) = (p.owner[u], p.owner[v]);
            if pu == pv {
                continue;
            }
            if pv == fid {
                nodes.extend(k_hop_neighborhood(g, u, hops));
            }
            if pu == fid {
                nodes.extend(k_hop_neighborhood(g, v, hops));
            }
        }
        nodes
    }

    #[test]
    fn refresh_after_a_disturbance_exactly_on_a_cut_edge() {
        // The disturbance removes a cut edge itself — the edge that justified
        // replicating each endpoint's neighborhood into the other fragment.
        // The refresh must drop that now-stale replication (unless another
        // cut edge still justifies it) and match the from-scratch recipe.
        let mut g = barabasi_albert(60, 2, 2);
        let mut p = edge_cut_partition(&g, 3, 1);
        let (cu, cv) = g
            .edges()
            .find(|&(u, v)| p.owner[u] != p.owner[v])
            .expect("partition has a cut edge");
        let (pu, pv) = (p.owner[cu], p.owner[cv]);
        g.remove_edge(cu, cv);

        let touched: BTreeSet<NodeId> = [cu, cv].into_iter().collect();
        let refreshed = p
            .refresh_after_disturbance(&g, &touched, 1)
            .expect("node set unchanged");
        assert!(
            refreshed.contains(&pu) && refreshed.contains(&pv),
            "both endpoint owners must be refreshed, got {refreshed:?}"
        );

        // Ownership is never rebalanced by a refresh.
        for f in &p.fragments {
            for &v in &f.owned {
                assert_eq!(p.owner[v], f.id);
            }
        }
        // Every fragment — refreshed or not — matches the from-scratch
        // replication recipe, and its edge list is the induced subgraph.
        for f in &p.fragments {
            assert_eq!(
                f.nodes,
                rebuilt_nodes(&g, &p, f.id, 1),
                "fragment {} replication diverges from a full rebuild",
                f.id
            );
            let induced: Vec<Edge> = g
                .edges()
                .filter(|&(u, v)| f.nodes.contains(&u) && f.nodes.contains(&v))
                .collect();
            assert_eq!(f.edges, induced, "fragment {} edge list stale", f.id);
            assert!(
                !f.edges.contains(&(cu.min(cv), cu.max(cv))),
                "removed cut edge lingers in fragment {}",
                f.id
            );
        }
    }

    #[test]
    fn refresh_detects_node_set_changes_and_no_op_touches() {
        let mut g = barabasi_albert(30, 2, 5);
        let mut p = edge_cut_partition(&g, 2, 1);
        assert_eq!(
            p.refresh_after_disturbance(&g, &BTreeSet::new(), 1),
            Some(Vec::new()),
            "empty touch set refreshes nothing"
        );
        g.add_node(vec![]);
        assert_eq!(
            p.refresh_after_disturbance(&g, &BTreeSet::new(), 1),
            None,
            "node additions force a rebuild"
        );
    }
}
