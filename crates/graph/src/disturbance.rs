//! k-disturbances and (k, b)-disturbances.
//!
//! A *k-disturbance* flips at most `k` node pairs of a graph (edge insertions
//! and removals). When applied to `G \ Gw` it must not touch witness edges.
//! A *(k, b)-disturbance* additionally limits every node to at most `b`
//! incident flips (the "local budget" that makes APPNP verification
//! tractable, §III-B of the paper).

use crate::edge::{Edge, EdgeSet};
use crate::graph::{Graph, NodeId};
use rcw_linalg::rng::{Rng, SliceRandom};
use std::collections::BTreeMap;

/// A set of node-pair flips together with the budgets it was built under.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Disturbance {
    flips: EdgeSet,
}

impl Disturbance {
    /// Creates an empty disturbance.
    pub fn new() -> Self {
        Disturbance::default()
    }

    /// Creates a disturbance from node pairs.
    pub fn from_pairs<I: IntoIterator<Item = Edge>>(pairs: I) -> Self {
        Disturbance {
            flips: EdgeSet::from_iter(pairs),
        }
    }

    /// The flipped node pairs.
    pub fn pairs(&self) -> &EdgeSet {
        &self.flips
    }

    /// Number of flips.
    pub fn len(&self) -> usize {
        self.flips.len()
    }

    /// Whether no pairs are flipped.
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty()
    }

    /// Adds a pair; returns `true` if newly added.
    pub fn add(&mut self, u: NodeId, v: NodeId) -> bool {
        self.flips.insert(u, v)
    }

    /// Checks the local budget: every node is incident to at most `b` flips.
    pub fn respects_local_budget(&self, b: usize) -> bool {
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (u, v) in self.flips.iter() {
            *counts.entry(u).or_insert(0) += 1;
            *counts.entry(v).or_insert(0) += 1;
        }
        counts.values().all(|&c| c <= b)
    }

    /// Applies the disturbance to a graph, returning the disturbed graph.
    pub fn apply(&self, graph: &Graph) -> Graph {
        graph.flip_edges(&self.flips.to_vec())
    }

    /// The nodes incident to any flipped pair — the seed set of the
    /// disturbance's cache-invalidation footprint.
    pub fn touched_nodes(&self) -> std::collections::BTreeSet<NodeId> {
        self.flips.iter().flat_map(|(u, v)| [u, v]).collect()
    }
}

/// The k-hop footprint of a set of disturbances: every node within `hops` of
/// a flipped endpoint, computed on `graph` (pass the *post*-disturbance graph
/// so chained insertions are traversed). Any L-hop receptive field, candidate
/// neighborhood, or PPR row whose node set is disjoint from this footprint is
/// unaffected by the disturbance up to the usual truncation error, which is
/// what lets an engine invalidate selectively instead of flushing every cache.
pub fn disturbance_footprint(
    graph: &Graph,
    disturbances: &[Disturbance],
    hops: usize,
) -> std::collections::BTreeSet<NodeId> {
    let touched: Vec<NodeId> = disturbances
        .iter()
        .flat_map(|d| d.touched_nodes())
        .filter(|&v| graph.contains_node(v))
        .collect();
    crate::traversal::k_hop_neighborhood_multi(graph, &touched, hops)
}

/// Strategy for sampling random disturbances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisturbanceStrategy {
    /// Only remove existing edges. The paper's experiments mainly use this
    /// ("establishing new links in real networks may be expensive").
    RemovalOnly,
    /// Only insert missing edges.
    InsertionOnly,
    /// Mix removals and insertions uniformly at random.
    Mixed,
}

/// Samples a random k-disturbance over `G \ protected` using the given
/// strategy. The result respects the global budget `k` and, when `b > 0`, the
/// local budget `b`. Deterministic for a given seed.
pub fn random_disturbance(
    graph: &Graph,
    protected: &EdgeSet,
    k: usize,
    b: usize,
    strategy: DisturbanceStrategy,
    seed: u64,
) -> Disturbance {
    let mut rng = Rng::seed_from_u64(seed);
    let mut removable: Vec<Edge> = graph
        .edges()
        .filter(|&(u, v)| !protected.contains(u, v))
        .collect();
    removable.shuffle(&mut rng);

    let mut insertable: Vec<Edge> = Vec::new();
    if !matches!(strategy, DisturbanceStrategy::RemovalOnly) {
        insertable = graph
            .non_edges()
            .into_iter()
            .filter(|&(u, v)| !protected.contains(u, v))
            .collect();
        insertable.shuffle(&mut rng);
    }

    let mut d = Disturbance::new();
    let mut local: BTreeMap<NodeId, usize> = BTreeMap::new();
    let try_add =
        |d: &mut Disturbance, local: &mut BTreeMap<NodeId, usize>, u: NodeId, v: NodeId| -> bool {
            if b > 0 {
                let cu = *local.get(&u).unwrap_or(&0);
                let cv = *local.get(&v).unwrap_or(&0);
                if cu >= b || cv >= b {
                    return false;
                }
            }
            if d.add(u, v) {
                *local.entry(u).or_insert(0) += 1;
                *local.entry(v).or_insert(0) += 1;
                true
            } else {
                false
            }
        };

    let mut ri = 0;
    let mut ii = 0;
    while d.len() < k {
        let pick_removal = match strategy {
            DisturbanceStrategy::RemovalOnly => true,
            DisturbanceStrategy::InsertionOnly => false,
            DisturbanceStrategy::Mixed => rng.gen_bool(0.5),
        };
        let progressed = if pick_removal && ri < removable.len() {
            let (u, v) = removable[ri];
            ri += 1;
            try_add(&mut d, &mut local, u, v)
        } else if !pick_removal && ii < insertable.len() {
            let (u, v) = insertable[ii];
            ii += 1;
            try_add(&mut d, &mut local, u, v)
        } else if ri < removable.len() {
            let (u, v) = removable[ri];
            ri += 1;
            try_add(&mut d, &mut local, u, v)
        } else if ii < insertable.len() {
            let (u, v) = insertable[ii];
            ii += 1;
            try_add(&mut d, &mut local, u, v)
        } else {
            break;
        };
        let _ = progressed;
        if ri >= removable.len() && ii >= insertable.len() {
            break;
        }
    }
    d
}

/// Samples a random (k, b)-disturbance from an explicit candidate pool
/// instead of the whole graph. The pool is what encodes the strategy (a
/// removal-only pool simply contains no non-edges). Deterministic for a given
/// seed, and — unlike [`random_disturbance`] — a function of the pool alone:
/// two graphs that agree on the pool's neighborhood draw identical
/// disturbances, which is what keeps the sampled verifier's verdict local to
/// the query.
pub fn random_disturbance_from(
    candidates: &[Edge],
    protected: &EdgeSet,
    k: usize,
    b: usize,
    seed: u64,
) -> Disturbance {
    let mut rng = Rng::seed_from_u64(seed);
    let mut pool: Vec<Edge> = candidates
        .iter()
        .copied()
        .filter(|&(u, v)| !protected.contains(u, v))
        .collect();
    pool.shuffle(&mut rng);
    let mut d = Disturbance::new();
    let mut local: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (u, v) in pool {
        if d.len() >= k {
            break;
        }
        if b > 0 {
            let cu = *local.get(&u).unwrap_or(&0);
            let cv = *local.get(&v).unwrap_or(&0);
            if cu >= b || cv >= b {
                continue;
            }
        }
        if d.add(u, v) {
            *local.entry(u).or_insert(0) += 1;
            *local.entry(v).or_insert(0) += 1;
        }
    }
    d
}

/// Enumerates *all* disturbances of exactly `j` pairs drawn from `candidates`.
/// Used by the exhaustive (NP-hard) verifier on small graphs and in tests.
/// The number of results is `C(|candidates|, j)`; callers must keep inputs small.
pub fn enumerate_disturbances(candidates: &[Edge], j: usize) -> Vec<Disturbance> {
    let mut out = Vec::new();
    let mut current: Vec<Edge> = Vec::with_capacity(j);
    fn rec(
        candidates: &[Edge],
        start: usize,
        remaining: usize,
        current: &mut Vec<Edge>,
        out: &mut Vec<Disturbance>,
    ) {
        if remaining == 0 {
            out.push(Disturbance::from_pairs(current.iter().copied()));
            return;
        }
        if candidates.len().saturating_sub(start) < remaining {
            return;
        }
        for i in start..candidates.len() {
            current.push(candidates[i]);
            rec(candidates, i + 1, remaining - 1, current, out);
            current.pop();
        }
    }
    rec(candidates, 0, j, &mut current, &mut out);
    out
}

/// Enumerates all disturbances of size `1..=k` from the candidate pairs.
pub fn enumerate_disturbances_up_to(candidates: &[Edge], k: usize) -> Vec<Disturbance> {
    (1..=k)
        .flat_map(|j| enumerate_disturbances(candidates, j))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle5() -> Graph {
        let mut g = Graph::with_nodes(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        g
    }

    #[test]
    fn budgets() {
        let d = Disturbance::from_pairs([(0, 1), (0, 2), (0, 3)]);
        assert!(d.respects_local_budget(3));
        assert!(!d.respects_local_budget(2), "node 0 has 3 incident flips");
    }

    #[test]
    fn apply_flips_pairs() {
        let g = cycle5();
        let d = Disturbance::from_pairs([(0, 1), (0, 2)]);
        let disturbed = d.apply(&g);
        assert!(!disturbed.has_edge(0, 1), "existing edge removed");
        assert!(disturbed.has_edge(0, 2), "missing pair inserted");
        assert_eq!(disturbed.num_edges(), g.num_edges());
    }

    #[test]
    fn random_removal_only_never_inserts() {
        let g = cycle5();
        let d = random_disturbance(
            &g,
            &EdgeSet::new(),
            3,
            0,
            DisturbanceStrategy::RemovalOnly,
            7,
        );
        assert!(d.len() <= 3);
        assert!(d.pairs().iter().all(|(u, v)| g.has_edge(u, v)));
    }

    #[test]
    fn random_disturbance_respects_protected_and_budget() {
        let g = cycle5();
        let protected = EdgeSet::from_iter([(0, 1), (1, 2)]);
        let d = random_disturbance(&g, &protected, 10, 1, DisturbanceStrategy::Mixed, 3);
        assert!(d.pairs().iter().all(|(u, v)| !protected.contains(u, v)));
        assert!(d.respects_local_budget(1));
    }

    #[test]
    fn random_disturbance_is_deterministic_per_seed() {
        let g = cycle5();
        let a = random_disturbance(&g, &EdgeSet::new(), 3, 0, DisturbanceStrategy::Mixed, 42);
        let b = random_disturbance(&g, &EdgeSet::new(), 3, 0, DisturbanceStrategy::Mixed, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_draws_respect_k_b_protection_and_seed() {
        let candidates: Vec<Edge> = (0..8)
            .flat_map(|u| ((u + 1)..8).map(move |v| (u, v)))
            .collect();
        let protected = EdgeSet::from_iter([(0, 1), (2, 5), (3, 4), (8, 9)]);
        for seed in 0..32 {
            for (k, b) in [(1, 1), (3, 1), (4, 2), (6, 2)] {
                let d = random_disturbance_from(&candidates, &protected, k, b, seed);
                assert!(!d.is_empty() && d.len() <= k, "seed {seed}: {d:?}");
                assert!(d
                    .pairs()
                    .iter()
                    .all(|e| candidates.contains(&e) && !protected.contains(e.0, e.1)));
                assert!(d.respects_local_budget(b), "seed {seed}: {d:?}");
                let again = random_disturbance_from(&candidates, &protected, k, b, seed);
                assert_eq!(d, again, "seed {seed}: draws must be deterministic");
            }
        }
    }

    #[test]
    fn insertion_only_only_inserts() {
        let g = cycle5();
        let d = random_disturbance(
            &g,
            &EdgeSet::new(),
            2,
            0,
            DisturbanceStrategy::InsertionOnly,
            1,
        );
        assert!(d.pairs().iter().all(|(u, v)| !g.has_edge(u, v)));
    }

    #[test]
    fn enumeration_counts_are_binomial() {
        let candidates = vec![(0, 1), (0, 2), (1, 2), (2, 3)];
        assert_eq!(enumerate_disturbances(&candidates, 2).len(), 6);
        assert_eq!(enumerate_disturbances(&candidates, 4).len(), 1);
        assert_eq!(enumerate_disturbances(&candidates, 5).len(), 0);
        // 4 singletons + 6 pairs
        assert_eq!(enumerate_disturbances_up_to(&candidates, 2).len(), 10);
    }

    #[test]
    fn touched_nodes_are_flip_endpoints() {
        let d = Disturbance::from_pairs([(0, 1), (2, 4)]);
        let touched: Vec<_> = d.touched_nodes().into_iter().collect();
        assert_eq!(touched, vec![0, 1, 2, 4]);
        assert!(Disturbance::new().touched_nodes().is_empty());
    }

    #[test]
    fn footprint_expands_by_hops_on_the_disturbed_graph() {
        // path 0-1-2-3-4; flip (3,4) out, footprint at 1 hop from {3,4}
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(i, i + 1);
        }
        let d = Disturbance::from_pairs([(3, 4)]);
        let disturbed = d.apply(&g);
        let fp = disturbance_footprint(&disturbed, std::slice::from_ref(&d), 1);
        // on the disturbed graph 4 is isolated, 3's 1-hop ball is {2,3}
        assert_eq!(fp.into_iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        let fp0 = disturbance_footprint(&disturbed, &[d], 0);
        assert_eq!(fp0.into_iter().collect::<Vec<_>>(), vec![3, 4]);
        // invalid endpoints are dropped rather than panicking
        let wild = Disturbance::from_pairs([(0, 99)]);
        let fp_w = disturbance_footprint(&g, &[wild], 1);
        assert_eq!(fp_w.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn enumeration_of_zero_is_single_empty() {
        let candidates = vec![(0, 1)];
        let all = enumerate_disturbances(&candidates, 0);
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }
}
