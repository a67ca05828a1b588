//! Greedy policy-iteration disturbance search (Procedure PRI, Algorithm 1).
//!
//! Given the direction `r = H[:, c] - H[:, l]` (make label `c` beat the
//! assigned label `l`), PRI searches for the set of node-pair flips that
//! maximizes the PPR-weighted objective `pi_{E}(v)^T r` — equivalently, that
//! minimizes the worst-case margin of `v`. It follows the policy-iteration
//! scheme of certifiable-robustness analysis:
//!
//! 1. compute the value function `X = (I - alpha P)^{-1} r` on the currently
//!    disturbed graph;
//! 2. score every candidate pair `(u, u')` by the gain of flipping it, which
//!    for a row-stochastic propagation is positive exactly when
//!    `(1 - 2 A'_{uu'}) (X[u'] - (X[u] - r[u]) / alpha) > 0`;
//! 3. keep the top-`b` positive-scoring flips per node (the local budget),
//!    toggle them into the working set, and repeat until a fixed point.
//!
//! The procedure guarantees the *local* budget `b`; the caller (Algorithm 1 in
//! `rcw-core`) enforces the global budget `k` by rejecting oversized results.

use crate::ppr::value_function;
use rcw_graph::{Csr, Edge, EdgeSet, GraphView, NodeId};
use std::collections::BTreeMap;

/// Configuration of the policy-iteration search.
#[derive(Clone, Debug)]
pub struct PriConfig {
    /// Teleport probability of the APPNP model under attack.
    pub alpha: f64,
    /// Local budget `b`: at most this many flips incident to any node.
    pub local_budget: usize,
    /// Maximum number of policy-iteration rounds (a safety bound; the search
    /// usually converges in a handful of rounds).
    pub max_rounds: usize,
    /// Number of fixed-point iterations used for the value function.
    pub value_iters: usize,
}

impl Default for PriConfig {
    fn default() -> Self {
        PriConfig {
            alpha: 0.2,
            local_budget: 2,
            max_rounds: 12,
            value_iters: 50,
        }
    }
}

/// Outcome of a PRI search.
#[derive(Clone, Debug, Default)]
pub struct PriResult {
    /// The selected disturbance (node-pair flips).
    pub disturbance: EdgeSet,
    /// Number of policy-iteration rounds executed.
    pub rounds: usize,
}

/// Runs the greedy policy-iteration search.
///
/// * `base_view` — the graph being disturbed (`G`, typically already masked by
///   nothing; witness edges are excluded through `candidates`).
/// * `candidates` — the admissible node pairs (pairs not in the witness; the
///   caller controls whether insertions are allowed by which pairs it lists).
/// * `r` — per-node objective direction (`H[:, c] - H[:, l]`).
/// * `target` — the test node whose PPR row defines the objective.
pub fn pri_search(
    base_view: &GraphView<'_>,
    candidates: &[Edge],
    r: &[f64],
    target: NodeId,
    cfg: &PriConfig,
) -> PriResult {
    let mut current = EdgeSet::new();
    let mut previous: Option<EdgeSet> = None;
    let mut rounds = 0;

    while rounds < cfg.max_rounds && previous.as_ref() != Some(&current) {
        previous = Some(current.clone());
        rounds += 1;

        // Evaluate the value function and the target's PPR row on the
        // currently disturbed graph.
        let disturbed = base_view.flipped(&current);
        let csr = Csr::from_view(&disturbed);
        let x = value_function(&csr, r, cfg.alpha, cfg.value_iters);
        let pi = crate::ppr::ppr_row(&csr, target, cfg.alpha, cfg.value_iters);

        // Score candidates and keep the top-b positive flips per node.
        // The score is the first-order change of the objective pi(v)^T r when
        // flipping (u, u'): each endpoint's contribution is its visit
        // probability (PPR mass, degree-normalized) times how much the new/
        // lost neighbor exceeds the endpoint's current neighborhood average
        // `(X[u] - r[u]) / alpha`. This refines the paper's printed score for
        // undirected flips, where both endpoints' rows of P change at once.
        let mut per_node: BTreeMap<NodeId, Vec<(f64, Edge)>> = BTreeMap::new();
        for &(u, v) in candidates {
            if u == v || u >= csr.num_nodes() || v >= csr.num_nodes() {
                continue;
            }
            let present = disturbed.has_edge(u, v);
            let sign = if present { -1.0 } else { 1.0 };
            let du = csr.degree(u) as f64 + 1.0;
            let dv = csr.degree(v) as f64 + 1.0;
            let gain_u = pi[u] / du * (x[v] - (x[u] - r[u]) / cfg.alpha);
            let gain_v = pi[v] / dv * (x[u] - (x[v] - r[v]) / cfg.alpha);
            let gain = sign * (gain_u + gain_v);
            if gain > 0.0 {
                per_node.entry(u).or_default().push((gain, (u, v)));
            }
        }
        let mut proposed = EdgeSet::new();
        for (_node, mut list) in per_node {
            list.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            for (_, (u, v)) in list.into_iter().take(cfg.local_budget) {
                proposed.insert(u, v);
            }
        }

        // Symmetric difference update (line 8 of Procedure PRI).
        current = current.symmetric_difference(&proposed);

        // Enforce the local budget on the working set: drop excess flips of
        // over-budget nodes deterministically (highest edges dropped first).
        current = enforce_local_budget(&current, cfg.local_budget);

        if proposed.is_empty() {
            break;
        }
    }

    PriResult {
        disturbance: current,
        rounds,
    }
}

/// Drops flips from nodes that exceed the local budget, keeping the
/// lexicographically smallest edges (deterministic).
fn enforce_local_budget(set: &EdgeSet, b: usize) -> EdgeSet {
    if b == 0 {
        return EdgeSet::new();
    }
    let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut out = EdgeSet::new();
    for (u, v) in set.iter() {
        let cu = *counts.get(&u).unwrap_or(&0);
        let cv = *counts.get(&v).unwrap_or(&0);
        if cu < b && cv < b {
            out.insert(u, v);
            *counts.entry(u).or_insert(0) += 1;
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    out
}

/// Truncates a disturbance to at most `k` flips, keeping the ones ranked most
/// valuable by re-scoring against the value function of the *undisturbed*
/// view. Used when PRI returns more flips than the global budget allows but
/// the caller still wants the best `k`-subset as a candidate.
pub fn truncate_to_k(
    base_view: &GraphView<'_>,
    disturbance: &EdgeSet,
    r: &[f64],
    alpha: f64,
    k: usize,
) -> EdgeSet {
    if disturbance.len() <= k {
        return disturbance.clone();
    }
    let csr = Csr::from_view(base_view);
    let x = value_function(&csr, r, alpha, 50);
    let mut scored: Vec<(f64, Edge)> = disturbance
        .iter()
        .map(|(u, v)| {
            let present = base_view.has_edge(u, v);
            let sign = if present { -1.0 } else { 1.0 };
            let du = csr.degree(u) as f64 + 1.0;
            let dv = csr.degree(v) as f64 + 1.0;
            let gain_u = (x[v] - (x[u] - r[u]) / alpha) / du;
            let gain_v = (x[u] - (x[v] - r[v]) / alpha) / dv;
            (sign * (gain_u + gain_v), (u, v))
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(_, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_graph::Graph;

    /// A barbell: two triangles joined by a bridge. Node 0 is the target.
    fn barbell() -> Graph {
        let mut g = Graph::with_nodes(6);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.add_edge(u, v);
        }
        g
    }

    /// The objective `pi_E(v)^T r` of a search result: `(1 - alpha)` times
    /// the value function at `target` on the view flipped by `disturbance`.
    fn objective(
        base_view: &GraphView<'_>,
        disturbance: &EdgeSet,
        r: &[f64],
        target: NodeId,
        cfg: &PriConfig,
    ) -> f64 {
        let csr = Csr::from_view(&base_view.flipped(disturbance));
        (1.0 - cfg.alpha) * value_function(&csr, r, cfg.alpha, cfg.value_iters)[target]
    }

    #[test]
    fn pri_increases_the_objective() {
        let g = barbell();
        let view = GraphView::full(&g);
        // objective direction: mass on the far triangle is good for the attacker
        let r = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let cfg = PriConfig {
            alpha: 0.3,
            local_budget: 2,
            max_rounds: 8,
            value_iters: 80,
        };
        let candidates: Vec<Edge> = vec![(0, 3), (0, 4), (0, 5), (0, 1), (0, 2)];
        let result = pri_search(&view, &candidates, &r, 0, &cfg);
        let base_obj = objective(&view, &EdgeSet::new(), &r, 0, &cfg);
        let obj = objective(&view, &result.disturbance, &r, 0, &cfg);
        assert!(
            obj > base_obj,
            "PRI should improve the objective: {obj} vs {base_obj}"
        );
        assert!(!result.disturbance.is_empty());
        assert!(result.rounds >= 1);
        // inserting edges towards the far triangle is the expected move
        let inserts: Vec<Edge> = result
            .disturbance
            .iter()
            .filter(|&(u, v)| !g.has_edge(u, v))
            .collect();
        assert!(
            !inserts.is_empty(),
            "expected at least one insertion towards the high-r region"
        );
    }

    #[test]
    fn pri_respects_the_local_budget() {
        let g = barbell();
        let view = GraphView::full(&g);
        let r = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let cfg = PriConfig {
            alpha: 0.3,
            local_budget: 1,
            max_rounds: 6,
            value_iters: 60,
        };
        let candidates: Vec<Edge> = vec![(0, 3), (0, 4), (0, 5), (1, 3), (1, 4)];
        let result = pri_search(&view, &candidates, &r, 0, &cfg);
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (u, v) in result.disturbance.iter() {
            *counts.entry(u).or_insert(0) += 1;
            *counts.entry(v).or_insert(0) += 1;
        }
        assert!(
            counts.values().all(|&c| c <= 1),
            "local budget violated: {counts:?}"
        );
    }

    #[test]
    fn pri_converges_and_terminates() {
        let g = barbell();
        let view = GraphView::full(&g);
        let r = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let cfg = PriConfig::default();
        let candidates: Vec<Edge> = g.edge_vec();
        let result = pri_search(&view, &candidates, &r, 0, &cfg);
        assert!(result.rounds <= cfg.max_rounds);
    }

    #[test]
    fn empty_candidates_give_empty_disturbance() {
        let g = barbell();
        let view = GraphView::full(&g);
        let r = vec![1.0; 6];
        let result = pri_search(&view, &[], &r, 0, &PriConfig::default());
        assert!(result.disturbance.is_empty());
    }

    #[test]
    fn truncate_keeps_at_most_k() {
        let g = barbell();
        let view = GraphView::full(&g);
        let r = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let d: EdgeSet = [(0usize, 3usize), (0, 4), (0, 5), (1, 3)]
            .into_iter()
            .collect();
        let t = truncate_to_k(&view, &d, &r, 0.3, 2);
        assert_eq!(t.len(), 2);
        let t_all = truncate_to_k(&view, &d, &r, 0.3, 10);
        assert_eq!(t_all.len(), 4);
    }

    #[test]
    fn enforce_local_budget_zero_clears_everything() {
        let d: EdgeSet = [(0usize, 1usize), (2, 3)].into_iter().collect();
        assert!(enforce_local_budget(&d, 0).is_empty());
        assert_eq!(enforce_local_budget(&d, 1).len(), 2);
    }
}
