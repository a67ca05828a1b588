//! The unified model-dispatch layer.
//!
//! Everything in `rcw-core` — sequential generation, parallel generation, and
//! re-verification — talks to classifiers through [`VerifiableModel`], an
//! extension trait over [`GnnModel`] that adds the *verification strategy* to
//! the *inference function*:
//!
//! * the default methods implement the model-agnostic path (enumeration /
//!   sampling `verifyRCW`, randomized local disturbance search);
//! * [`Appnp`] overrides them with the tractable policy-iteration path
//!   (`verifyRCW-APPNP`, Algorithm 1; PRI search for the parallel workers).
//!
//! A type-erased `&dyn GnnModel` is itself a `VerifiableModel` (with the
//! default strategy), so callers that only hold a trait object — the bench
//! harness, the baselines comparison, `Box<dyn GnnModel>` collections — plug
//! into [`crate::RoboGExp`] and [`crate::ParaRoboGExp`] without any adapter.
//! Passing `&appnp as &dyn GnnModel` is therefore also the supported way to
//! *ablate* the tractable path and force sampling verification on APPNP.

use crate::config::RcwConfig;
use crate::engine::EngineCaches;
use crate::verify::{disturbance_preserves_cw, verify_rcw, verify_rcw_with_caches};
use crate::verify_appnp::{
    pri_check_node, verify_rcw_appnp, verify_rcw_appnp_ctx, verify_rcw_appnp_node,
    verify_rcw_appnp_node_ctx,
};
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
/// calling convention for every model.
pub trait VerifiableModel: GnnModel {
    /// Upcast to the plain inference interface. Implementations are always
    /// the single expression `self`; the method exists because generic code
    /// over `M: VerifiableModel + ?Sized` cannot unsize-coerce on its own.
    fn as_gnn(&self) -> &dyn GnnModel;

    /// `verifyRCW`: verifies `witness` against all of its test nodes under
    /// (k, b)-disturbances. Default: the model-agnostic enumeration/sampling
    /// verifier ([`crate::verify::verify_rcw`]).
    fn verify_rcw(&self, graph: &Graph, witness: &Witness, cfg: &RcwConfig) -> VerifyOutcome {
        verify_rcw(self.as_gnn(), graph, witness, cfg)
    }

    /// Verifies `witness` for a *single* test node. Per-node checks are
    /// independent, which is what `paraRoboGExp` fans out across workers.
    ///
    /// # Panics
    /// Panics if `node` is not a test node of the witness.
    fn verify_rcw_node(
        &self,
        graph: &Graph,
        witness: &Witness,
        node: NodeId,
        cfg: &RcwConfig,
    ) -> VerifyOutcome {
        let label = witness
            .label_of(node)
            .expect("verify_rcw_node: node is not a test node of the witness");
        let single = Witness::new(witness.subgraph.clone(), vec![node], vec![label]);
        VerifiableModel::verify_rcw(self, graph, &single, cfg)
    }

    /// [`VerifiableModel::verify_rcw`] over an engine's shared cache tier:
    /// same verdict, but candidate neighborhoods and PPR pruning rows come
    /// from — and are left in — `caches`. The default ignores the caches and
    /// delegates to [`VerifiableModel::verify_rcw`], so a downstream impl
    /// that only overrides `verify_rcw` keeps its strategy on every driver
    /// path; each in-repo model overrides this to route the same verdict
    /// through the hood/PPR caches.
    fn verify_rcw_shared(
        &self,
        graph: &Graph,
        witness: &Witness,
        cfg: &RcwConfig,
        caches: &EngineCaches,
    ) -> VerifyOutcome {
        let _ = caches;
        VerifiableModel::verify_rcw(self, graph, witness, cfg)
    }

    /// Per-node variant of [`VerifiableModel::verify_rcw_shared`]. The
    /// default ignores the caches and delegates to
    /// [`VerifiableModel::verify_rcw_node`], preserving downstream overrides
    /// of either per-node or whole-witness verification; in-repo models
    /// override it to route through the shared caches.
    ///
    /// # Panics
    /// Panics if `node` is not a test node of the witness.
    fn verify_rcw_node_shared(
        &self,
        graph: &Graph,
        witness: &Witness,
        node: NodeId,
        cfg: &RcwConfig,
        caches: &EngineCaches,
    ) -> VerifyOutcome {
        let _ = caches;
        self.verify_rcw_node(graph, witness, node, cfg)
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
                let single = Witness::new(witness.subgraph.clone(), vec![v], vec![labels[i]]);
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

/// Routes the shared-cache verification of models on the model-agnostic
/// strategy (their `verify_rcw` is the trait default) through the hood/PPR
/// caches. Same verdict as the default `verify_rcw_shared`, cheaper warm.
macro_rules! agnostic_verify_rcw_shared {
    () => {
        fn verify_rcw_shared(
            &self,
            graph: &Graph,
            witness: &Witness,
            cfg: &RcwConfig,
            caches: &EngineCaches,
        ) -> VerifyOutcome {
            verify_rcw_with_caches(self.as_gnn(), graph, witness, cfg, caches)
        }

        fn verify_rcw_node_shared(
            &self,
            graph: &Graph,
            witness: &Witness,
            node: NodeId,
            cfg: &RcwConfig,
            caches: &EngineCaches,
        ) -> VerifyOutcome {
            let label = witness
                .label_of(node)
                .expect("verify_rcw_node_shared: node is not a test node of the witness");
            let single = Witness::new(witness.subgraph.clone(), vec![node], vec![label]);
            verify_rcw_with_caches(self.as_gnn(), graph, &single, cfg, caches)
        }
    };
}

impl<'m> VerifiableModel for dyn GnnModel + 'm {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
    agnostic_verify_rcw_shared!();
}

impl VerifiableModel for Gcn {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
    agnostic_verify_rcw_shared!();
}

impl VerifiableModel for GraphSage {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
    agnostic_verify_rcw_shared!();
}

impl VerifiableModel for Gat {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
    agnostic_verify_rcw_shared!();
}

impl VerifiableModel for Appnp {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }

    /// Algorithm 1, `verifyRCW-APPNP`: tractable under (k, b)-disturbances.
    fn verify_rcw(&self, graph: &Graph, witness: &Witness, cfg: &RcwConfig) -> VerifyOutcome {
        verify_rcw_appnp(self, graph, witness, cfg)
    }

    fn verify_rcw_node(
        &self,
        graph: &Graph,
        witness: &Witness,
        node: NodeId,
        cfg: &RcwConfig,
    ) -> VerifyOutcome {
        verify_rcw_appnp_node(self, graph, witness, node, cfg)
    }

    /// Engine path: candidate neighborhoods and PPR pruning rows come from
    /// the shared cache tier; `H = f_theta(X)` comes from the model.
    fn verify_rcw_shared(
        &self,
        graph: &Graph,
        witness: &Witness,
        cfg: &RcwConfig,
        caches: &EngineCaches,
    ) -> VerifyOutcome {
        verify_rcw_appnp_ctx(self, graph, witness, cfg, Some(caches))
    }

    fn verify_rcw_node_shared(
        &self,
        graph: &Graph,
        witness: &Witness,
        node: NodeId,
        cfg: &RcwConfig,
        caches: &EngineCaches,
    ) -> VerifyOutcome {
        verify_rcw_appnp_node_ctx(self, graph, witness, node, cfg, Some(caches))
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
            let single = Witness::new(witness.subgraph.clone(), vec![v], vec![labels[i]]);
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

        let via_trait = VerifiableModel::verify_rcw(&appnp, &g, &w, &cfg);
        let tractable = verify_rcw_appnp(&appnp, &g, &w, &cfg);
        assert_eq!(via_trait, tractable, "Appnp must use verify_rcw_appnp");

        let erased: &dyn GnnModel = &appnp;
        let via_erased = VerifiableModel::verify_rcw(erased, &g, &w, &cfg);
        let sampling = crate::verify::verify_rcw(&appnp, &g, &w, &cfg);
        assert_eq!(
            via_erased, sampling,
            "a type-erased model must use the model-agnostic verifier"
        );
    }

    #[test]
    fn per_node_dispatch_matches_the_appnp_verifier() {
        let (g, appnp, t) = setup();
        let w = ego_witness(&g, &appnp, t);
        let cfg = RcwConfig::with_budgets(1, 1);
        let via_trait = appnp.verify_rcw_node(&g, &w, t, &cfg);
        let direct = verify_rcw_appnp_node(&appnp, &g, &w, t, &cfg);
        assert_eq!(via_trait, direct);
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

    /// A downstream model that overrides *only* `verify_rcw` (the documented
    /// extension point) must keep its strategy on the engine/session path.
    #[test]
    fn custom_verify_rcw_override_is_honored_by_the_shared_path() {
        use rcw_graph::ForwardCtx;
        use rcw_linalg::Matrix;

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
            fn verify_rcw(&self, _: &Graph, _: &Witness, _: &RcwConfig) -> VerifyOutcome {
                // sentinel: an exact custom verifier with a recognizable count
                let mut out = VerifyOutcome::at_level(crate::WitnessLevel::Robust);
                out.disturbances_checked = 4242;
                out
            }
        }

        let (g, appnp, t) = setup();
        let w = ego_witness(&g, &appnp, t);
        let cfg = RcwConfig::with_budgets(1, 1);
        let caches = crate::engine::EngineCaches::new(&cfg);
        let custom = Custom(&appnp);
        let shared = custom.verify_rcw_shared(&g, &w, &cfg, &caches);
        assert_eq!(
            shared.disturbances_checked, 4242,
            "verify_rcw_shared must dispatch to the custom verify_rcw"
        );
        let per_node = custom.verify_rcw_node_shared(&g, &w, t, &cfg, &caches);
        assert_eq!(per_node.disturbances_checked, 4242);

        // and a model overriding only the *per-node* extension point keeps
        // its strategy on the parallel fan-out path
        struct NodeCustom<'a>(&'a Appnp);
        impl rcw_gnn::GnnModel for NodeCustom<'_> {
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
        impl VerifiableModel for NodeCustom<'_> {
            fn as_gnn(&self) -> &dyn rcw_gnn::GnnModel {
                self
            }
            fn verify_rcw_node(
                &self,
                _: &Graph,
                _: &Witness,
                _: NodeId,
                _: &RcwConfig,
            ) -> VerifyOutcome {
                let mut out = VerifyOutcome::at_level(crate::WitnessLevel::Robust);
                out.disturbances_checked = 77;
                out
            }
        }
        let node_custom = NodeCustom(&appnp);
        let via_shared = node_custom.verify_rcw_node_shared(&g, &w, t, &cfg, &caches);
        assert_eq!(
            via_shared.disturbances_checked, 77,
            "verify_rcw_node_shared must dispatch to the custom verify_rcw_node"
        );
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
