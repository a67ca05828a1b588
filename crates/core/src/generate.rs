//! RoboGExp — generation of k-robust counterfactual witnesses (Algorithm 2).
//!
//! The generator follows the paper's "expand–verify" strategy:
//!
//! 1. start from the trivial witness containing only the test nodes;
//! 2. for each test node, *expand* the witness with the node pairs most
//!    responsible for its label — first enough of its receptive field to make
//!    the witness factual, then the support edges whose removal flips the
//!    label (counterfactual);
//! 3. *verify* robustness: find the worst admissible (k, b)-disturbance (the
//!    policy-iteration search for APPNP, enumeration/sampling otherwise); if a
//!    disturbance disproves robustness, absorb its edges into the witness —
//!    pairs inside the witness can no longer be disturbed — and repeat.
//!
//! The procedure always terminates: the witness grows monotonically and is
//! bounded by the host graph (the trivial k-RCW). When no non-trivial robust
//! witness exists the generator returns its best effort together with the
//! strongest verified level, which is what the paper's quality metrics
//! (Fidelity+/−, GED) evaluate.

use crate::config::RcwConfig;
use crate::engine::EngineCaches;
use crate::model::VerifiableModel;
use crate::session;
use crate::witness::{VerifyOutcome, Witness, WitnessLevel};
use rcw_gnn::{Appnp, GnnModel};
use rcw_graph::{Graph, NodeId};
use std::time::Duration;

/// Counters and timing collected during generation.
#[derive(Clone, Debug, Default)]
pub struct GenerationStats {
    /// Total model inference calls.
    pub inference_calls: usize,
    /// Disturbances examined across all verification rounds.
    pub disturbances_verified: usize,
    /// Expand–verify rounds executed.
    pub expand_rounds: usize,
    /// Wall-clock time of the generation call.
    pub elapsed: Duration,
}

/// Result of a generation run.
#[derive(Clone, Debug)]
pub struct GenerationResult {
    /// The generated witness.
    pub witness: Witness,
    /// The strongest level the final witness was verified at.
    pub level: WitnessLevel,
    /// Whether the witness is non-trivial (has edges, is not the whole graph).
    pub nontrivial: bool,
    /// Degraded-mode flag: the engine could neither repair nor regenerate
    /// this witness after a disturbance, so the *pre-disturbance* witness is
    /// served as a best effort. `level` is then the level it held when it
    /// was last verified, not a claim about the current graph. Always
    /// `false` on freshly generated (non-degraded) results.
    pub stale: bool,
    /// Counters and timing.
    pub stats: GenerationStats,
}

/// The RoboGExp generator, generic over how the model verifies witnesses.
///
/// `M` is usually inferred: a concrete model type ([`Appnp`] gets the
/// tractable verification path through its [`VerifiableModel`] overrides) or
/// the type-erased `dyn GnnModel` (model-agnostic sampling path).
///
/// Since the engine/session split this driver is a thin wrapper over the
/// shared session code: it owns a private [`EngineCaches`] instance, so
/// repeated `generate` calls on the same (unmutated) graph reuse the
/// partition-free shared tier — k-hop neighborhoods and PPR pruning rows —
/// while [`crate::WitnessEngine`] adds the witness store,
/// mutation epochs, and repair on top of the same session code.
pub struct RoboGExp<'a, M: VerifiableModel + ?Sized = dyn GnnModel> {
    model: &'a M,
    cfg: RcwConfig,
    caches: EngineCaches,
}

impl<'a> RoboGExp<'a, Appnp> {
    /// Creates a generator for an APPNP classifier (tractable verification).
    /// Equivalent to [`RoboGExp::new`]; kept as the paper-facing name.
    pub fn for_appnp(appnp: &'a Appnp, cfg: RcwConfig) -> Self {
        RoboGExp::new(appnp, cfg)
    }
}

impl<'a, M: VerifiableModel + ?Sized> RoboGExp<'a, M> {
    /// Creates a generator for any fixed deterministic GNN. The verification
    /// strategy is whatever the model's [`VerifiableModel`] impl provides.
    pub fn new(model: &'a M, cfg: RcwConfig) -> Self {
        let caches = EngineCaches::new(&cfg);
        RoboGExp { model, cfg, caches }
    }

    /// Alias of [`RoboGExp::new`]. Accepts concrete models and `&dyn
    /// GnnModel` trait objects alike.
    pub fn for_model(model: &'a M, cfg: RcwConfig) -> Self {
        RoboGExp::new(model, cfg)
    }

    /// The configuration in use.
    pub fn config(&self) -> &RcwConfig {
        &self.cfg
    }

    /// The model being explained, as the plain inference interface.
    pub fn model(&self) -> &'a dyn GnnModel {
        self.model.as_gnn()
    }

    /// The driver's shared cache tier (inspection and tests).
    pub fn caches(&self) -> &EngineCaches {
        &self.caches
    }

    /// Verification dispatch used by the generator and exposed for callers
    /// that want to re-verify a witness: [`VerifiableModel::verify_rcw`] over
    /// the driver's cache tier.
    pub fn verify(&self, graph: &Graph, witness: &Witness) -> VerifyOutcome {
        self.model
            .verify_rcw(graph, witness, &self.cfg, &self.caches)
    }

    /// Generates a k-RCW (best effort) for the given test nodes: one
    /// sequential expand–verify session over the driver's cache tier.
    ///
    /// # Panics
    /// Panics if `test_nodes` is empty or contains an invalid node id.
    pub fn generate(&self, graph: &Graph, test_nodes: &[NodeId]) -> GenerationResult {
        session::run_sequential(
            self.model,
            graph,
            &self.caches,
            &self.cfg,
            test_nodes,
            None,
            &session::SessionBudget::unlimited(),
        )
        .expect("unlimited session budget cannot expire")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_gnn::{Gcn, TrainConfig};
    use rcw_graph::GraphView;

    fn clique_setup() -> (Graph, Gcn, Appnp, Vec<usize>) {
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
        // two featureless test nodes attached to community 0 and 1 respectively
        let t0 = g.add_labeled_node(vec![0.0, 0.0], 0);
        g.add_edge(t0, 0);
        g.add_edge(t0, 1);
        let t1 = g.add_labeled_node(vec![0.0, 0.0], 1);
        g.add_edge(t1, 6);
        g.add_edge(t1, 7);
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..12).collect();
        let tc = TrainConfig {
            epochs: 150,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let mut gcn = Gcn::new(&[2, 8, 2], 3);
        gcn.train(&view, &train, &tc);
        let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 15, 4);
        appnp.train(&view, &train, &tc);
        (g, gcn, appnp, vec![t0, t1])
    }

    #[test]
    fn generates_a_nontrivial_witness_for_gcn() {
        let (g, gcn, _appnp, tests) = clique_setup();
        let cfg = RcwConfig::with_budgets(2, 1);
        let gen = RoboGExp::for_model(&gcn, cfg);
        let result = gen.generate(&g, &tests);
        assert!(
            result.witness.subgraph.num_edges() > 0,
            "witness must grow beyond the trivial node set"
        );
        assert!(
            result.witness.subgraph.num_edges() < g.num_edges(),
            "witness should not be the whole graph"
        );
        assert!(result.stats.inference_calls > 0);
        assert!(result.stats.elapsed.as_nanos() > 0);
        // test nodes are always part of the witness
        for &t in &tests {
            assert!(result.witness.subgraph.contains_node(t));
        }
    }

    #[test]
    fn generates_for_appnp_and_reaches_cw_or_better() {
        let (g, _gcn, appnp, tests) = clique_setup();
        let cfg = RcwConfig::with_budgets(2, 1);
        let gen = RoboGExp::for_appnp(&appnp, cfg);
        let result = gen.generate(&g, &tests);
        assert!(
            matches!(
                result.level,
                WitnessLevel::Counterfactual | WitnessLevel::Robust | WitnessLevel::Factual
            ),
            "expected at least a factual explanation, got {:?}",
            result.level
        );
        // the final witness must be a subgraph of the host
        assert!(
            result.witness.subgraph.is_subgraph_of(&g) || result.witness.subgraph.num_edges() == 0
        );
    }

    #[test]
    fn generated_witness_passes_its_own_verification() {
        let (g, _gcn, appnp, tests) = clique_setup();
        let cfg = RcwConfig::with_budgets(1, 1);
        let gen = RoboGExp::for_appnp(&appnp, cfg);
        let result = gen.generate(&g, &tests);
        let recheck = gen.verify(&g, &result.witness);
        assert_eq!(
            recheck.level, result.level,
            "re-verification must agree with the level reported by generation"
        );
    }

    #[test]
    fn k_zero_generation_is_counterfactual_generation() {
        let (g, gcn, _appnp, tests) = clique_setup();
        let cfg = RcwConfig::with_budgets(0, 0);
        let result = RoboGExp::for_model(&gcn, cfg).generate(&g, &tests);
        // with k = 0 a verified witness is exactly a CW
        if result.level == WitnessLevel::Robust {
            let (cw, _) = crate::verify::verify_counterfactual(&gcn, &g, &result.witness);
            assert!(cw);
        }
    }

    #[test]
    #[should_panic(expected = "empty test set")]
    fn empty_test_set_is_rejected() {
        let (g, gcn, _appnp, _tests) = clique_setup();
        RoboGExp::for_model(&gcn, RcwConfig::default()).generate(&g, &[]);
    }

    #[test]
    fn larger_k_never_shrinks_the_witness_level_guarantee() {
        // Lemma 1: a k-RCW is a k'-RCW for k' <= k. We check the practical
        // consequence: a witness generated for k=2 and verified robust is
        // also verified robust for k=1.
        let (g, _gcn, appnp, tests) = clique_setup();
        let gen2 = RoboGExp::for_appnp(&appnp, RcwConfig::with_budgets(2, 1));
        let result = gen2.generate(&g, &tests);
        if result.level == WitnessLevel::Robust {
            let gen1 = RoboGExp::for_appnp(&appnp, RcwConfig::with_budgets(1, 1));
            let out = gen1.verify(&g, &result.witness);
            assert_eq!(out.level, WitnessLevel::Robust);
        }
    }
}
