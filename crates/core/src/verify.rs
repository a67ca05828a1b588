//! Verification of factual witnesses, counterfactual witnesses, and k-RCWs
//! for arbitrary (model-agnostic) classifiers.
//!
//! * `verifyW` (Lemma 2) and `verifyCW` (Lemma 3) are PTIME: they are one and
//!   two inference calls per test node respectively.
//! * k-RCW verification is NP-hard in general (Theorem 1). The model-agnostic
//!   [`verify_rcw`] therefore either enumerates all admissible disturbances
//!   (small candidate sets — exact) or samples a configurable number of
//!   random (k, b)-disturbances (large candidate sets — a sound "no" /
//!   probabilistic "yes"). It always runs over an [`EngineCaches`] tier; a
//!   fresh one gives the same verdict as a warm one. Every disturbance it
//!   checks is a flip variant of one ball per test node and base view
//!   (`G` and `G \ G_w`), built once per call over the whole candidate
//!   pool. The tractable APPNP-specific verifier lives in
//!   [`crate::verify_appnp`].

use crate::config::RcwConfig;
use crate::engine::EngineCaches;
use crate::witness::{VerifyOutcome, Witness, WitnessLevel};
use rcw_gnn::{ForwardScratch, GnnModel, KernelScratch, VariantBase};
use rcw_graph::{
    disturbance::{enumerate_disturbances_up_to, random_disturbance_from},
    traversal::k_hop_neighborhood_multi,
    BallScratch, Edge, EdgeSet, Graph, GraphView,
};
use rcw_linalg::vector;
use rcw_pagerank::PprCache;

/// Teleport probability used by the PPR-weighted candidate pruning. A fixed
/// heuristic value: the ranking only decides *which* pairs enter the
/// disturbance search, never the verdict on any individual disturbance.
pub const PRUNE_ALPHA: f64 = 0.2;

/// Collects the node pairs an adversary may flip: existing edges near the test
/// nodes that are not protected by the witness, plus (depending on the
/// strategy) a bounded number of insertion candidates incident to the test
/// nodes. An optional shared PPR-row cache feeds the top-m pruning; `None`
/// computes the rows into a throwaway cache.
pub fn candidate_pairs_cached(
    graph: &Graph,
    protected: &EdgeSet,
    test_nodes: &[rcw_graph::NodeId],
    cfg: &RcwConfig,
    ppr: Option<&PprCache>,
) -> Vec<Edge> {
    let hood = k_hop_neighborhood_multi(graph, test_nodes, cfg.candidate_hops);
    candidate_pairs_bounded(graph, protected, test_nodes, &hood, cfg, ppr)
}

/// The full candidate-pair pipeline: collect pairs inside the precomputed
/// neighborhood, then — only when the pool exceeds `cfg.max_candidate_pairs`
/// — keep the top-m pairs by personalized-PageRank mass from the test nodes.
/// Dense neighborhoods produce quadratically many pairs; the PPR weighting
/// keeps the ones a disturbance could use to move the most probability mass
/// toward or away from the test nodes, which is exactly the quantity the
/// APPNP worst-case analysis maximizes.
pub fn candidate_pairs_bounded(
    graph: &Graph,
    protected: &EdgeSet,
    test_nodes: &[rcw_graph::NodeId],
    hood: &std::collections::BTreeSet<rcw_graph::NodeId>,
    cfg: &RcwConfig,
    ppr: Option<&PprCache>,
) -> Vec<Edge> {
    let mut out: Vec<Edge> = Vec::new();
    // Removal candidates: existing edges inside the neighborhood,
    // unprotected, read off the hood nodes' own adjacency.
    for &u in hood {
        for v in graph.neighbors(u) {
            if u < v && hood.contains(&v) && !protected.contains(u, v) {
                out.push((u, v));
            }
        }
    }
    // Insertion candidates: non-edges between a test node and a nearby node.
    if !matches!(cfg.strategy, rcw_graph::DisturbanceStrategy::RemovalOnly) {
        let mut inserted = 0usize;
        'outer: for &t in test_nodes {
            for &u in hood {
                if inserted >= cfg.max_insert_candidates {
                    break 'outer;
                }
                if u != t && !graph.has_edge(t, u) && !protected.contains(t, u) {
                    out.push(rcw_graph::norm_edge(t, u));
                    inserted += 1;
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    if out.len() <= cfg.max_candidate_pairs {
        return out;
    }
    top_m_by_ppr(graph, out, test_nodes, cfg, ppr)
}

/// The pairs an adversary may flip against `witness`: the candidate pool
/// around its test nodes, minus its own edges, with the neighborhood and the
/// pruning rows read from `caches`.
pub(crate) fn witness_candidates(
    graph: &Graph,
    witness: &Witness,
    cfg: &RcwConfig,
    caches: &EngineCaches,
) -> Vec<Edge> {
    let hood = caches.hood(graph, &witness.test_nodes, cfg.candidate_hops);
    candidate_pairs_bounded(
        graph,
        witness.edges(),
        &witness.test_nodes,
        &hood,
        cfg,
        Some(caches.ppr()),
    )
}

/// Keeps the `cfg.max_candidate_pairs` pairs carrying the most PPR mass from
/// the test nodes (score of `(u, v)` = summed mass the test nodes place on
/// `u` and `v`). Deterministic: ties break by pair order; output is sorted.
fn top_m_by_ppr(
    graph: &Graph,
    pairs: Vec<Edge>,
    test_nodes: &[rcw_graph::NodeId],
    cfg: &RcwConfig,
    ppr: Option<&PprCache>,
) -> Vec<Edge> {
    let fallback;
    let cache = match ppr {
        Some(cache) => cache,
        None => {
            fallback = PprCache::new(PRUNE_ALPHA, cfg.ppr_iters);
            &fallback
        }
    };
    let csr = graph.csr();
    let epoch = graph.epoch();
    let mut mass = vec![0.0f64; graph.num_nodes()];
    for &t in test_nodes {
        let row = cache.row(csr, t, epoch);
        for (i, &p) in row.iter().enumerate() {
            mass[i] += p;
        }
    }
    let mut scored: Vec<(f64, Edge)> = pairs
        .into_iter()
        .map(|(u, v)| (mass[u] + mass[v], (u, v)))
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let mut kept: Vec<Edge> = scored
        .into_iter()
        .take(cfg.max_candidate_pairs)
        .map(|(_, e)| e)
        .collect();
    kept.sort_unstable();
    kept
}

/// `verifyW`: is the witness a factual witness for every test node?
/// Returns the verdict and the number of inference calls spent.
pub fn verify_factual(model: &dyn GnnModel, graph: &Graph, witness: &Witness) -> (bool, usize) {
    verify_factual_with(model, graph, witness, &mut KernelScratch::default())
}

/// [`verify_factual`] over caller-provided kernel scratch buffers.
pub(crate) fn verify_factual_with(
    model: &dyn GnnModel,
    graph: &Graph,
    witness: &Witness,
    scratch: &mut KernelScratch,
) -> (bool, usize) {
    let view = GraphView::restricted_to(graph, witness.edges());
    let mut calls = 0;
    for (i, &v) in witness.test_nodes.iter().enumerate() {
        calls += 1;
        if model.predict_with(v, &view, scratch) != Some(witness.labels[i]) {
            return (false, calls);
        }
    }
    (true, calls)
}

/// `verifyCW`: is the witness a counterfactual witness for every test node?
/// (Factuality is a precondition and is checked first.)
pub fn verify_counterfactual(
    model: &dyn GnnModel,
    graph: &Graph,
    witness: &Witness,
) -> (bool, usize) {
    verify_counterfactual_with(model, graph, witness, &mut KernelScratch::default())
}

/// [`verify_counterfactual`] over caller-provided kernel scratch buffers.
pub(crate) fn verify_counterfactual_with(
    model: &dyn GnnModel,
    graph: &Graph,
    witness: &Witness,
    scratch: &mut KernelScratch,
) -> (bool, usize) {
    let (factual, mut calls) = verify_factual_with(model, graph, witness, scratch);
    if !factual {
        return (false, calls);
    }
    // The paper's trivial case: when the witness covers every edge the
    // remainder is (edge-)empty, `M(v, ∅)` is undefined, and the witness
    // counts as a counterfactual witness by convention. The remainder's
    // edges are the graph's minus the witness edges the graph holds, so
    // counting those decides it without listing the remainder.
    let covered = witness
        .edges()
        .iter()
        .filter(|&(u, v)| graph.has_edge(u, v))
        .count();
    if covered == graph.num_edges() {
        return (true, calls);
    }
    let remainder = GraphView::without(graph, witness.edges());
    for (i, &v) in witness.test_nodes.iter().enumerate() {
        calls += 1;
        if model.predict_with(v, &remainder, scratch) == Some(witness.labels[i]) {
            return (false, calls);
        }
    }
    (true, calls)
}

/// Checks whether one specific disturbance leaves the witness a CW for every
/// test node: the disturbed graph must still assign the original label, and
/// removing the witness from the disturbed graph must still flip it.
pub fn disturbance_preserves_cw(
    model: &dyn GnnModel,
    graph: &Graph,
    witness: &Witness,
    disturbance: &EdgeSet,
) -> (bool, usize) {
    disturbance_preserves_cw_with(
        model,
        graph,
        witness,
        disturbance,
        &mut KernelScratch::default(),
    )
}

/// [`disturbance_preserves_cw`] over caller-provided kernel scratch buffers.
pub(crate) fn disturbance_preserves_cw_with(
    model: &dyn GnnModel,
    graph: &Graph,
    witness: &Witness,
    disturbance: &EdgeSet,
    scratch: &mut KernelScratch,
) -> (bool, usize) {
    let disturbed = GraphView::full(graph).flipped(disturbance);
    let mut calls = 0;
    for (i, &v) in witness.test_nodes.iter().enumerate() {
        calls += 1;
        if model.predict_with(v, &disturbed, scratch) != Some(witness.labels[i]) {
            return (false, calls);
        }
    }
    let mut remainder = GraphView::without(graph, witness.edges());
    remainder.flip_edges(disturbance);
    for (i, &v) in witness.test_nodes.iter().enumerate() {
        calls += 1;
        if model.predict_with(v, &remainder, scratch) == Some(witness.labels[i]) {
            return (false, calls);
        }
    }
    (true, calls)
}

/// The flip bases of one [`verify_rcw`] call: for each test node one
/// [`VariantBase`] on `G` and one on `G \ G_w`, each grown over every
/// insertion the candidate pool offers, so every checked disturbance `D`
/// reads `G ⊕ D` and `(G \ G_w) ⊕ D` as flip variants of them. A base is
/// built the first time a check needs it.
struct FlipBases<'a> {
    model: &'a dyn GnnModel,
    graph: &'a Graph,
    witness: &'a Witness,
    /// Pool pairs absent from `G`: every insertion a disturbance may make.
    reach: Vec<Edge>,
    /// `bases[2 i]` on `G`, `bases[2 i + 1]` on `G \ G_w`, for test node `i`.
    bases: Vec<Option<VariantBase>>,
    build: BallScratch,
    fwd: ForwardScratch,
    removed: Vec<Edge>,
    inserted: Vec<Edge>,
}

impl<'a> FlipBases<'a> {
    fn new(
        model: &'a dyn GnnModel,
        graph: &'a Graph,
        witness: &'a Witness,
        candidates: &[Edge],
    ) -> Self {
        FlipBases {
            model,
            graph,
            witness,
            reach: candidates
                .iter()
                .copied()
                .filter(|&(u, v)| !graph.has_edge(u, v))
                .collect(),
            bases: (0..2 * witness.test_nodes.len()).map(|_| None).collect(),
            build: BallScratch::default(),
            fwd: ForwardScratch::default(),
            removed: Vec::new(),
            inserted: Vec::new(),
        }
    }

    /// [`disturbance_preserves_cw`] over the bases: the same checks in the
    /// same order, with the same early exits and inference count. The
    /// candidate pool excludes the witness's edges, so each pair of `d` is
    /// a removal on both base views when it is an edge of `G` and an
    /// insertion on both otherwise.
    fn preserves_cw(&mut self, d: &EdgeSet) -> (bool, usize) {
        self.removed.clear();
        self.inserted.clear();
        for (u, v) in d.iter() {
            debug_assert!(
                !self.witness.edges().contains(u, v),
                "flip of a witness edge"
            );
            if self.graph.has_edge(u, v) {
                self.removed.push((u, v));
            } else {
                self.inserted.push((u, v));
            }
        }
        let mut calls = 0;
        for remainder in [false, true] {
            for i in 0..self.witness.test_nodes.len() {
                calls += 1;
                let keeps = self.label(i, remainder) == self.witness.labels[i];
                if keeps == remainder {
                    return (false, calls);
                }
            }
        }
        (true, calls)
    }

    /// Test node `i`'s label on `G ⊕ D` (or `(G \ G_w) ⊕ D` when
    /// `remainder`) for the current disturbance.
    fn label(&mut self, i: usize, remainder: bool) -> usize {
        let FlipBases {
            model,
            graph,
            witness,
            reach,
            bases,
            build,
            fwd,
            removed,
            inserted,
        } = self;
        let base = bases[2 * i + usize::from(remainder)].get_or_insert_with(|| {
            let view = if remainder {
                GraphView::without(graph, witness.edges())
            } else {
                GraphView::full(graph)
            };
            let mut base = VariantBase::default();
            base.rebuild(*model, witness.test_nodes[i], &view, reach, build);
            base
        });
        vector::argmax(model.variant_logits_into(base, removed, inserted, fwd))
    }
}

/// Model-agnostic k-RCW verification (`verifyRCW`).
///
/// When the candidate-pair set is at most `cfg.exhaustive_limit`, every
/// disturbance of size `1..=k` respecting the local budget is enumerated and
/// the verdict is exact. Otherwise `cfg.sampled_disturbances` random
/// (k, b)-disturbances are tested: a returned counterexample is always sound,
/// while a "robust" verdict is probabilistic. Each check reads its flipped
/// views off the call's flip bases, bit-exact against
/// [`disturbance_preserves_cw`] on explicitly flipped views. The candidate neighborhood
/// comes from the hood cache and the pruning rows from the PPR cache, so
/// steady-state re-verification pays neither BFS nor PPR; the pool is built
/// only once the factual / counterfactual early exits have passed.
pub fn verify_rcw(
    model: &dyn GnnModel,
    graph: &Graph,
    witness: &Witness,
    cfg: &RcwConfig,
    caches: &EngineCaches,
) -> VerifyOutcome {
    cfg.validate().expect("invalid RcwConfig");
    // One scratch for the whole verification: every localized predict below
    // reuses the same ball/forward buffers.
    let mut scratch = KernelScratch::default();
    let (factual, calls_f) = verify_factual_with(model, graph, witness, &mut scratch);
    if !factual {
        return VerifyOutcome {
            level: WitnessLevel::NotAWitness,
            counterexample: None,
            inference_calls: calls_f,
            disturbances_checked: 0,
        };
    }
    let (cw, calls_cw) = verify_counterfactual_with(model, graph, witness, &mut scratch);
    let mut calls = calls_f + calls_cw;
    if !cw {
        return VerifyOutcome {
            level: WitnessLevel::Factual,
            counterexample: None,
            inference_calls: calls,
            disturbances_checked: 0,
        };
    }
    if cfg.k == 0 {
        return VerifyOutcome {
            level: WitnessLevel::Robust,
            counterexample: None,
            inference_calls: calls,
            disturbances_checked: 0,
        };
    }

    let candidates = witness_candidates(graph, witness, cfg, caches);
    let mut checked = 0usize;

    let disturbances: Vec<EdgeSet> = if candidates.len() <= cfg.exhaustive_limit {
        enumerate_disturbances_up_to(&candidates, cfg.k.min(candidates.len()))
            .into_iter()
            .filter(|d| d.respects_local_budget(cfg.local_budget))
            .map(|d| d.pairs().clone())
            .collect()
    } else {
        // Sample from the hood-local candidate pool, not the whole graph: a
        // flip far from every test node cannot move a localized margin, so
        // global draws only waste checks — and pool-local draws make the
        // verdict a function of the query's neighborhood alone, so appending
        // unrelated components to the graph never changes it.
        (0..cfg.sampled_disturbances)
            .map(|i| {
                random_disturbance_from(
                    &candidates,
                    witness.edges(),
                    cfg.k,
                    cfg.local_budget,
                    cfg.seed.wrapping_add(i as u64),
                )
                .pairs()
                .clone()
            })
            .filter(|d| !d.is_empty())
            .collect()
    };

    let mut flips = FlipBases::new(model, graph, witness, &candidates);
    for d in disturbances {
        checked += 1;
        let (ok, c) = flips.preserves_cw(&d);
        calls += c;
        if !ok {
            return VerifyOutcome {
                level: WitnessLevel::Counterfactual,
                counterexample: Some(d),
                inference_calls: calls,
                disturbances_checked: checked,
            };
        }
    }

    VerifyOutcome {
        level: WitnessLevel::Robust,
        counterexample: None,
        inference_calls: calls,
        disturbances_checked: checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_gnn::{Gcn, TrainConfig};
    use rcw_graph::{DisturbanceStrategy, EdgeSubgraph};

    /// Builds a two-community graph and a GCN trained to classify membership,
    /// where community membership is carried by the *edges* (the boundary
    /// node has uninformative features), so witnesses are meaningful.
    fn setup() -> (Graph, Gcn, usize) {
        let mut g = Graph::new();
        for i in 0..12 {
            let class = usize::from(i >= 6);
            let feats = if class == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            g.add_labeled_node(feats, class);
        }
        for u in 0..6 {
            for v in (u + 1)..6 {
                g.add_edge(u, v);
            }
        }
        for u in 6..12 {
            for v in (u + 1)..12 {
                g.add_edge(u, v);
            }
        }
        // test node: featureless node attached to community 0
        let t = g.add_labeled_node(vec![0.05, 0.25], 0);
        g.add_edge(t, 0);
        g.add_edge(t, 1);
        g.add_edge(t, 2);
        let mut gcn = Gcn::new(&[2, 8, 2], 11);
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..12).collect();
        gcn.train(
            &view,
            &train,
            &TrainConfig {
                epochs: 150,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        (g, gcn, t)
    }

    fn witness_for(g: &Graph, model: &Gcn, t: usize, edges: &[Edge]) -> Witness {
        let label = model.predict(t, &GraphView::full(g)).unwrap();
        Witness::new(
            EdgeSubgraph::from_edges(edges.iter().copied()),
            vec![t],
            vec![label],
        )
    }

    #[test]
    fn ego_edges_are_a_factual_witness() {
        let (g, gcn, t) = setup();
        let w = witness_for(
            &g,
            &gcn,
            t,
            &[(t, 0), (t, 1), (t, 2), (0, 1), (0, 2), (1, 2)],
        );
        let (ok, calls) = verify_factual(&gcn, &g, &w);
        assert!(ok, "the ego network must reproduce the label");
        assert_eq!(calls, 1);
    }

    #[test]
    fn empty_witness_is_not_counterfactual() {
        let (g, gcn, t) = setup();
        // The whole graph minus nothing still classifies t as before, so a
        // node-only witness cannot be counterfactual (and here not factual
        // either, because t's own features are uninformative).
        let label = gcn.predict(t, &GraphView::full(&g)).unwrap();
        let w = Witness::trivial_nodes(vec![t], vec![label]);
        let (cf, _) = verify_counterfactual(&gcn, &g, &w);
        assert!(!cf);
    }

    #[test]
    fn ego_witness_is_counterfactual() {
        let (g, gcn, t) = setup();
        let w = witness_for(&g, &gcn, t, &[(t, 0), (t, 1), (t, 2)]);
        let (factual, _) = verify_factual(&gcn, &g, &w);
        if factual {
            let (cf, _) = verify_counterfactual(&gcn, &g, &w);
            // removing every edge that connects t to its community must
            // destroy the evidence for class 0
            assert!(
                cf,
                "cutting all of t's edges must flip or undefine its label"
            );
        }
    }

    #[test]
    fn verify_rcw_reports_levels_monotonically() {
        let (g, gcn, t) = setup();
        let bad = witness_for(&g, &gcn, t, &[(6, 7)]); // unrelated edge far from t
        let cfg = RcwConfig::with_budgets(2, 1);
        let out = verify_rcw(&gcn, &g, &bad, &cfg, &EngineCaches::new(&cfg));
        // an edge unrelated to t can never be counterfactual: removing it
        // from G cannot flip t's label
        assert!(!out.is_counterfactual(), "unexpected level {:?}", out.level);

        let ego = witness_for(
            &g,
            &gcn,
            t,
            &[(t, 0), (t, 1), (t, 2), (0, 1), (0, 2), (1, 2)],
        );
        let out = verify_rcw(&gcn, &g, &ego, &cfg, &EngineCaches::new(&cfg));
        assert!(out.is_factual());
        assert!(out.inference_calls > 0);
    }

    #[test]
    fn k_zero_reduces_to_cw_verification() {
        let (g, gcn, t) = setup();
        let w = witness_for(&g, &gcn, t, &[(t, 0), (t, 1), (t, 2)]);
        let cfg = RcwConfig::with_budgets(0, 0);
        let out = verify_rcw(&gcn, &g, &w, &cfg, &EngineCaches::new(&cfg));
        assert_eq!(out.disturbances_checked, 0);
        if out.is_counterfactual() {
            assert_eq!(out.level, WitnessLevel::Robust, "k=0 robustness == CW");
        }
    }

    #[test]
    fn candidate_pairs_exclude_protected_edges() {
        let (g, _gcn, t) = setup();
        let protected: EdgeSet = [(t, 0usize)].into_iter().collect();
        let cfg = RcwConfig::with_budgets(3, 1);
        let cands = candidate_pairs_cached(&g, &protected, &[t], &cfg, None);
        assert!(!cands.contains(&rcw_graph::norm_edge(t, 0)));
        assert!(!cands.is_empty());
        // all candidates are real edges under RemovalOnly
        assert!(cands.iter().all(|&(u, v)| g.has_edge(u, v)));
    }

    #[test]
    fn candidate_pairs_can_include_insertions() {
        let (g, _gcn, t) = setup();
        let cfg = RcwConfig::with_budgets(3, 1).with_strategy(DisturbanceStrategy::Mixed);
        let cands = candidate_pairs_cached(&g, &EdgeSet::new(), &[t], &cfg, None);
        let insertions = cands.iter().filter(|&&(u, v)| !g.has_edge(u, v)).count();
        assert!(insertions > 0);
        assert!(insertions <= cfg.max_insert_candidates);
    }

    #[test]
    fn candidate_pool_is_bounded_by_ppr_top_m() {
        // dense double-clique: the unbounded pool is far larger than m
        let (g, _gcn, t) = setup();
        let cfg = RcwConfig::with_budgets(2, 1);
        let unbounded = candidate_pairs_cached(&g, &EdgeSet::new(), &[t], &cfg, None);
        assert!(unbounded.len() > 8, "setup graph must be dense enough");
        let bounded_cfg = cfg.clone().with_max_candidate_pairs(8);
        let bounded = candidate_pairs_cached(&g, &EdgeSet::new(), &[t], &bounded_cfg, None);
        assert_eq!(bounded.len(), 8);
        assert!(bounded.iter().all(|e| unbounded.contains(e)));
        // deterministic, and identical with or without a shared cache
        let cache = rcw_pagerank::PprCache::new(PRUNE_ALPHA, bounded_cfg.ppr_iters);
        let via_cache =
            candidate_pairs_cached(&g, &EdgeSet::new(), &[t], &bounded_cfg, Some(&cache));
        assert_eq!(bounded, via_cache);
        assert!(cache.stats().1 > 0, "pruning populated the cache");
        // the kept pairs are t-adjacent or in t's own community: the ones
        // carrying t's PPR mass, not the far clique's internal edges
        assert!(
            bounded
                .iter()
                .all(|&(u, v)| u == t || v == t || (u < 6 && v < 6)),
            "PPR pruning kept far-community pairs: {bounded:?}"
        );
    }

    /// The sampled verifier draws from the hood-local candidate pool, so its
    /// verdict depends on the query's neighborhood alone: appending a
    /// component no test node can reach changes neither the level nor how
    /// many disturbances were checked. (A trivial witness covering every
    /// edge is counterfactual only by the empty-remainder convention, which
    /// is a whole-graph property, so those are skipped.)
    #[test]
    fn sampled_verdict_ignores_a_disjoint_component() {
        use crate::generate::RoboGExp;
        use rcw_graph::generators::{ensure_connected, stochastic_block_model};
        use rcw_linalg::rng::Rng;

        let (mut g, blocks) = stochastic_block_model(&[10, 10], 0.5, 0.05, 3);
        ensure_connected(&mut g, 3);
        let mut rng = Rng::seed_from_u64(3);
        for (v, &b) in blocks.iter().enumerate() {
            // Weakly informative features, so labels lean on the edges.
            g.set_features(v, vec![0.4 + 0.2 * b as f64, rng.gen_f64()]);
            g.set_label(v, b);
        }
        let mut gcn = Gcn::new(&[2, 8, 2], 5);
        let train: Vec<usize> = (0..20).step_by(2).collect();
        gcn.train(
            &GraphView::full(&g),
            &train,
            &TrainConfig {
                epochs: 150,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );

        // The padded graph is `g` plus a disjoint copy of itself.
        let n = g.num_nodes();
        let mut padded = g.clone();
        for (v, &b) in blocks.iter().enumerate() {
            padded.add_labeled_node(g.features(v).to_vec(), b);
        }
        for (u, v) in g.edges() {
            padded.add_edge(n + u, n + v);
        }

        let cfg = RcwConfig {
            k: 2,
            local_budget: 1,
            exhaustive_limit: 4,
            sampled_disturbances: 12,
            ..RcwConfig::default()
        };
        let generator = RoboGExp::new(&gcn, cfg.clone());
        let mut sampled = 0;
        for t in 0..n {
            let result = generator.generate(&g, &[t]);
            if !result.nontrivial {
                continue;
            }
            let witness = result.witness;
            let alone = verify_rcw(&gcn, &g, &witness, &cfg, &EngineCaches::new(&cfg));
            let beside = verify_rcw(&gcn, &padded, &witness, &cfg, &EngineCaches::new(&cfg));
            assert_eq!(alone.level, beside.level, "node {t}");
            assert_eq!(
                alone.disturbances_checked, beside.disturbances_checked,
                "node {t}"
            );
            assert_eq!(alone.counterexample, beside.counterexample, "node {t}");
            let pool = candidate_pairs_cached(&g, witness.edges(), &[t], &cfg, None);
            if pool.len() > cfg.exhaustive_limit && alone.disturbances_checked > 0 {
                sampled += 1;
            }
        }
        assert!(sampled > 0, "no query reached the sampled path");
    }

    #[test]
    fn a_fragile_witness_yields_a_counterexample() {
        // Witness = only one of t's three support edges. Removing the other
        // two support edges (a 2-disturbance outside the witness) should flip
        // the label, so the witness must not be reported 2-robust.
        let (g, gcn, t) = setup();
        let w = witness_for(&g, &gcn, t, &[(t, 0)]);
        let (factual, _) = verify_factual(&gcn, &g, &w);
        if !factual {
            return; // single edge not factual for this trained model; nothing to assert
        }
        let cfg = RcwConfig {
            k: 2,
            local_budget: 2,
            exhaustive_limit: 64,
            candidate_hops: 1,
            ..RcwConfig::default()
        };
        let out = verify_rcw(&gcn, &g, &w, &cfg, &EngineCaches::new(&cfg));
        if out.level == WitnessLevel::Robust {
            // If it is robust even then, the counterexample machinery never
            // fired; the disturbance count must still be positive.
            assert!(out.disturbances_checked > 0);
        } else {
            assert!(out.counterexample.is_some() || out.level != WitnessLevel::Counterfactual);
        }
    }
}
