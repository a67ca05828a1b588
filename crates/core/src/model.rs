//! The unified model-dispatch layer.
//!
//! Everything in `rcw-core` — sequential generation, parallel generation, and
//! re-verification — talks to classifiers through [`VerifiableModel`], an
//! extension trait over [`GnnModel`] that adds the *verification strategy* to
//! the *inference function*. The trait has one verifier,
//! [`VerifiableModel::verify_rcw`], and it always runs over an
//! [`EngineCaches`] tier:
//!
//! * the default methods implement the model-agnostic path (enumeration /
//!   sampling `verifyRCW`, randomized local disturbance search);
//! * [`Appnp`] overrides them with the tractable policy-iteration path
//!   (`verifyRCW-APPNP`, Algorithm 1; PRI search for the parallel workers).
//!
//! Per-node checks (paraRoboGExp's fan-out, Lemma 6) are the same verifier
//! called on a one-node witness ([`Witness::single_node`]).
//!
//! A type-erased `&dyn GnnModel` is itself a `VerifiableModel` (with the
//! default strategy), so callers that only hold a trait object — the bench
//! harness, the baselines comparison, `Box<dyn GnnModel>` collections — plug
//! into [`crate::RoboGExp`] and [`crate::ParaRoboGExp`] without any adapter.
//! Passing `&appnp as &dyn GnnModel` is therefore also the supported way to
//! *ablate* the tractable path and force sampling verification on APPNP.

use crate::config::RcwConfig;
use crate::engine::EngineCaches;
use crate::verify::{disturbance_preserves_cw, verify_rcw};
use crate::verify_appnp::{pri_check_node, verify_rcw_appnp};
use crate::witness::{VerifyOutcome, Witness};
use rcw_gnn::{Appnp, Gat, Gcn, GnnModel, GraphSage, KernelScratch};
use rcw_graph::{Edge, EdgeSet, Graph, NodeId};
use rcw_linalg::rng::{Rng, SliceRandom};

/// Outcome of a worker's bounded search for a disturbance that disproves
/// robustness of the current witness inside its candidate pairs.
#[derive(Clone, Debug, Default)]
pub struct DisturbanceSearch {
    /// A (k, b)-disturbance that breaks the witness for some test node, if the
    /// search found one. Sound: any reported disturbance is a real
    /// counterexample (Lemma 6 makes locally found ones globally valid).
    pub counterexample: Option<EdgeSet>,
    /// Model inference calls spent by the search.
    pub inference_calls: usize,
    /// Disturbances examined.
    pub disturbances_checked: usize,
}

/// A [`GnnModel`] that knows how to verify k-RCWs of its own predictions.
///
/// The default method bodies implement the model-agnostic strategy; model
/// families with tractable verification (APPNP, Lemma 4) override them. All
/// of `rcw-core` dispatches through this trait, so there is exactly one
/// calling convention for every model, and overriding
/// [`VerifiableModel::verify_rcw`] changes the verdict on every driver path.
pub trait VerifiableModel: GnnModel {
    /// Upcast to the plain inference interface. Implementations are always
    /// the single expression `self`; the method exists because generic code
    /// over `M: VerifiableModel + ?Sized` cannot unsize-coerce on its own.
    fn as_gnn(&self) -> &dyn GnnModel;

    /// `verifyRCW`: verifies `witness` against all of its test nodes under
    /// (k, b)-disturbances. Candidate neighborhoods and PPR pruning rows come
    /// from — and are left in — `caches`; a fresh [`EngineCaches::new`] gives
    /// the same verdict as a warm one. Default: the model-agnostic
    /// enumeration/sampling verifier ([`crate::verify::verify_rcw`]).
    fn verify_rcw(
        &self,
        graph: &Graph,
        witness: &Witness,
        cfg: &RcwConfig,
        caches: &EngineCaches,
    ) -> VerifyOutcome {
        verify_rcw(self.as_gnn(), graph, witness, cfg, caches)
    }

    /// Bounded search, restricted to `candidates`, for a disturbance that
    /// disproves robustness of `witness` for any of `test_nodes` (a worker's
    /// share of a parallel round). Default: randomized sampling seeded from
    /// `cfg.seed` and `salt`. APPNP overrides this with the greedy PRI search.
    #[allow(clippy::too_many_arguments)]
    fn search_disturbance(
        &self,
        graph: &Graph,
        witness: &Witness,
        test_nodes: &[NodeId],
        labels: &[usize],
        candidates: &[Edge],
        cfg: &RcwConfig,
        salt: u64,
    ) -> DisturbanceSearch {
        let mut report = DisturbanceSearch::default();
        if candidates.is_empty() || cfg.k == 0 {
            return report;
        }
        let mut rng = Rng::seed_from_u64(cfg.seed.wrapping_add(salt));
        'outer: for _ in 0..cfg.sampled_disturbances {
            let mut pool = candidates.to_vec();
            pool.shuffle(&mut rng);
            let flips: EdgeSet = pool.into_iter().take(cfg.k).collect();
            if flips.is_empty() {
                break;
            }
            report.disturbances_checked += 1;
            for (i, &v) in test_nodes.iter().enumerate() {
                let single = witness.single_node(v, labels[i]);
                let (ok, calls) = disturbance_preserves_cw(self.as_gnn(), graph, &single, &flips);
                report.inference_calls += calls;
                if !ok {
                    report.counterexample = Some(flips);
                    break 'outer;
                }
            }
        }
        report
    }
}

impl<'m> VerifiableModel for dyn GnnModel + 'm {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
}

impl VerifiableModel for Gcn {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
}

impl VerifiableModel for GraphSage {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
}

impl VerifiableModel for Gat {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
}

impl VerifiableModel for Appnp {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }

    /// Algorithm 1, `verifyRCW-APPNP`: tractable under (k, b)-disturbances.
    /// Candidate neighborhoods and PPR pruning rows come from `caches`;
    /// `H = f_theta(X)` comes from the model.
    fn verify_rcw(
        &self,
        graph: &Graph,
        witness: &Witness,
        cfg: &RcwConfig,
        caches: &EngineCaches,
    ) -> VerifyOutcome {
        verify_rcw_appnp(self, graph, witness, cfg, caches)
    }

    /// Greedy policy-iteration search (Procedure PRI) for the single worst
    /// admissible disturbance per competitor class, over the model's cached
    /// `H`. The empty-search guard runs first so a no-op search costs
    /// nothing.
    fn search_disturbance(
        &self,
        graph: &Graph,
        witness: &Witness,
        test_nodes: &[NodeId],
        labels: &[usize],
        candidates: &[Edge],
        cfg: &RcwConfig,
        _salt: u64,
    ) -> DisturbanceSearch {
        let mut report = DisturbanceSearch::default();
        if candidates.is_empty() || cfg.k == 0 {
            return report;
        }
        let mut scratch = KernelScratch::default();
        for (i, &v) in test_nodes.iter().enumerate() {
            let single = witness.single_node(v, labels[i]);
            let found = pri_check_node(self, graph, &single, candidates, cfg, &mut scratch);
            report.inference_calls += found.inference_calls;
            report.disturbances_checked += found.disturbances_checked;
            if found.counterexample.is_some() {
                report.counterexample = found.counterexample;
                break;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_gnn::TrainConfig;
    use rcw_graph::{EdgeSubgraph, GraphView};

    /// Two cliques with a featureless boundary node, and a trained APPNP.
    fn setup() -> (Graph, Appnp, usize) {
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
        let t = g.add_labeled_node(vec![0.05, 0.25], 0);
        g.add_edge(t, 0);
        g.add_edge(t, 1);
        g.add_edge(t, 2);
        let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 12, 5);
        let train: Vec<usize> = (0..12).collect();
        appnp.train(
            &GraphView::full(&g),
            &train,
            &TrainConfig {
                epochs: 120,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        (g, appnp, t)
    }

    fn ego_witness(g: &Graph, m: &Appnp, t: usize) -> Witness {
        let l = m.predict(t, &GraphView::full(g)).unwrap();
        Witness::new(
            EdgeSubgraph::from_edges([(t, 0), (t, 1), (t, 2)]),
            vec![t],
            vec![l],
        )
    }

    /// The acceptance-criterion test: a concrete `&Appnp` dispatches to the
    /// tractable `verify_rcw_appnp` path, while the same model viewed as a
    /// type-erased `&dyn GnnModel` dispatches to the sampling path.
    #[test]
    fn appnp_routes_to_the_tractable_verifier() {
        let (g, appnp, t) = setup();
        let w = ego_witness(&g, &appnp, t);
        let cfg = RcwConfig::with_budgets(2, 1);
        let fresh = || EngineCaches::new(&cfg);

        let via_trait = VerifiableModel::verify_rcw(&appnp, &g, &w, &cfg, &fresh());
        let tractable = verify_rcw_appnp(&appnp, &g, &w, &cfg, &fresh());
        assert_eq!(via_trait, tractable, "Appnp must use verify_rcw_appnp");

        let erased: &dyn GnnModel = &appnp;
        let via_erased = VerifiableModel::verify_rcw(erased, &g, &w, &cfg, &fresh());
        let sampling = crate::verify::verify_rcw(&appnp, &g, &w, &cfg, &fresh());
        assert_eq!(
            via_erased, sampling,
            "a type-erased model must use the model-agnostic verifier"
        );
    }

    #[test]
    fn default_search_is_deterministic_in_seed_and_salt() {
        let (g, appnp, t) = setup();
        let w = ego_witness(&g, &appnp, t);
        let cfg = RcwConfig::with_budgets(2, 1);
        let erased: &dyn GnnModel = &appnp;
        let candidates: Vec<Edge> = g.edges().take(8).collect();
        let labels = [w.labels[0]];
        let a = erased.search_disturbance(&g, &w, &[t], &labels, &candidates, &cfg, 1);
        let b = erased.search_disturbance(&g, &w, &[t], &labels, &candidates, &cfg, 1);
        assert_eq!(a.counterexample, b.counterexample);
        assert_eq!(a.disturbances_checked, b.disturbances_checked);
    }

    /// A downstream model that overrides *only* `verify_rcw` (the one
    /// extension point) keeps its verdict on every driver path: the engine,
    /// the sequential driver, and the parallel per-node fan-out.
    #[test]
    fn custom_verify_rcw_override_is_honored_on_every_driver_path() {
        use rcw_graph::ForwardCtx;
        use rcw_linalg::Matrix;
        use std::sync::Arc;

        struct Custom<'a>(&'a Appnp);
        impl rcw_gnn::GnnModel for Custom<'_> {
            fn num_classes(&self) -> usize {
                self.0.num_classes()
            }
            fn num_layers(&self) -> usize {
                self.0.num_layers()
            }
            fn feature_dim(&self) -> usize {
                self.0.feature_dim()
            }
            fn forward(&self, ctx: &ForwardCtx<'_>, x: &Matrix) -> Matrix {
                self.0.forward(ctx, x)
            }
        }
        impl VerifiableModel for Custom<'_> {
            fn as_gnn(&self) -> &dyn rcw_gnn::GnnModel {
                self
            }
            fn verify_rcw(
                &self,
                _: &Graph,
                witness: &Witness,
                _: &RcwConfig,
                _: &EngineCaches,
            ) -> VerifyOutcome {
                // sentinel: an exact custom verifier with a recognizable
                // count, reporting how many test nodes it was handed
                let mut out = VerifyOutcome::at_level(crate::WitnessLevel::Robust);
                out.disturbances_checked = 4242;
                out.inference_calls = witness.test_nodes.len();
                out
            }
        }

        let (g, appnp, t) = setup();
        let w = ego_witness(&g, &appnp, t);
        let cfg = RcwConfig::with_budgets(1, 1);
        let custom = Custom(&appnp);

        let engine = crate::WitnessEngine::new(Arc::new(g.clone()), &custom, cfg.clone());
        assert_eq!(engine.verify(&w).disturbances_checked, 4242);
        let driver = crate::RoboGExp::new(&custom, cfg.clone());
        assert_eq!(driver.verify(&g, &w).disturbances_checked, 4242);

        // 2 workers on a 2-node query: one custom call per one-node witness
        let l0 = appnp.predict(0, &GraphView::full(&g)).unwrap();
        let pair = Witness::new(w.subgraph.clone(), vec![t, 0], vec![w.labels[0], l0]);
        let caches = EngineCaches::new(&cfg);
        let fanned = crate::session::parallel_verify(&custom, &g, &pair, &cfg, 2, &caches);
        assert_eq!(fanned.disturbances_checked, 2 * 4242);
        assert_eq!(
            fanned.inference_calls, 2,
            "each call sees a one-node witness"
        );
        assert_eq!(fanned.level, crate::WitnessLevel::Robust);
    }

    /// One verdict however the caches are held: fresh caches, caches warmed
    /// by earlier queries, `RoboGExp::verify` and `WitnessEngine::verify`
    /// give equal outcomes for every served model family.
    #[test]
    fn verdicts_agree_across_fresh_and_warm_caches_and_drivers() {
        use crate::{RoboGExp, WitnessEngine};
        use rcw_graph::generators::{ensure_connected, stochastic_block_model};
        use std::sync::Arc;

        let (mut g, blocks) = stochastic_block_model(&[10, 10], 0.5, 0.05, 3);
        ensure_connected(&mut g, 3);
        let mut rng = Rng::seed_from_u64(3);
        for (v, &b) in blocks.iter().enumerate() {
            // weakly informative features, so labels lean on the edges
            g.set_features(v, vec![0.4 + 0.2 * b as f64, rng.gen_f64()]);
            g.set_label(v, b);
        }
        let g = Arc::new(g);
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..g.num_nodes()).collect();
        let tc = TrainConfig {
            epochs: 150,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let mut gcn = Gcn::new(&[2, 8, 2], 5);
        gcn.train(&view, &train, &tc);
        let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 10, 9);
        appnp.train(&view, &train, &tc);
        // a small pool cap so the PPR pruning rows are read from the caches
        let cfg = RcwConfig {
            k: 2,
            local_budget: 1,
            exhaustive_limit: 12,
            sampled_disturbances: 6,
            max_candidate_pairs: 10,
            ..RcwConfig::default()
        };
        let mut queries: Vec<Vec<NodeId>> = (0..20).map(|v| vec![v]).collect();
        queries.extend([vec![2, 17], vec![19, 4]]);

        fn parity<M: VerifiableModel>(
            model: &M,
            g: &Arc<Graph>,
            cfg: &RcwConfig,
            queries: &[Vec<NodeId>],
        ) {
            let driver = RoboGExp::new(model, cfg.clone());
            let engine = WitnessEngine::new(Arc::clone(g), model, cfg.clone());
            let warm = EngineCaches::new(cfg);
            let witnesses: Vec<Witness> = queries
                .iter()
                .map(|q| {
                    engine.generate(q);
                    let w = driver.generate(g, q).witness;
                    model.verify_rcw(g, &w, cfg, &warm);
                    w
                })
                .collect();
            assert!(
                warm.hood_stats().1 > 0,
                "no verdict reached the robustness phase"
            );
            for w in &witnesses {
                let fresh = model.verify_rcw(g, w, cfg, &EngineCaches::new(cfg));
                assert_eq!(fresh, model.verify_rcw(g, w, cfg, &warm), "{w:?}");
                assert_eq!(fresh, driver.verify(g, w), "{w:?}");
                assert_eq!(fresh, engine.verify(w), "{w:?}");
            }
            assert!(
                warm.hood_stats().0 > 0,
                "the second pass hit the warm caches"
            );
            assert!(warm.ppr().stats().1 > 0, "the pool cap never pruned");
        }

        parity(&gcn, &g, &cfg, &queries);
        parity(&appnp, &g, &cfg, &queries);
        parity(&GraphSage::new(&[2, 8, 2], 9), &g, &cfg, &queries);
        parity(&Gat::new(&[2, 8, 2], 1), &g, &cfg, &queries);
    }

    #[test]
    fn search_respects_empty_candidates_and_zero_k() {
        let (g, appnp, t) = setup();
        let w = ego_witness(&g, &appnp, t);
        let labels = [w.labels[0]];
        let none = appnp.search_disturbance(
            &g,
            &w,
            &[t],
            &labels,
            &[],
            &RcwConfig::with_budgets(2, 1),
            0,
        );
        assert!(none.counterexample.is_none());
        assert_eq!(none.disturbances_checked, 0);
        let candidates: Vec<Edge> = g.edges().take(4).collect();
        let zero_k = appnp.search_disturbance(
            &g,
            &w,
            &[t],
            &labels,
            &candidates,
            &RcwConfig::with_budgets(0, 0),
            0,
        );
        assert!(zero_k.counterexample.is_none());
    }
}
