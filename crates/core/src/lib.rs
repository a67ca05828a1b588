//! # rcw-core
//!
//! The paper's primary contribution: robust counterfactual witnesses (k-RCWs)
//! for GNN-based node classification.
//!
//! * [`witness`] — witness structures and verification outcomes.
//! * [`config`] — the configuration `C = (G, Gs, VT, M, k)` (budgets + knobs).
//! * [`verify`] — PTIME `verifyW` / `verifyCW` and the model-agnostic
//!   (NP-hard, bounded) `verifyRCW`.
//! * [`verify_appnp`] — the tractable `verifyRCW-APPNP` (Algorithm 1) built on
//!   policy-iteration disturbance search under (k, b)-disturbances.
//! * [`model`] — the [`VerifiableModel`] dispatch layer: one verifier,
//!   [`VerifiableModel::verify_rcw`], always run over an [`EngineCaches`]
//!   tier, with APPNP overriding the default sampling strategy by the
//!   tractable policy-iteration path.
//! * [`generate`] — the `RoboGExp` expand–verify generator (Algorithm 2).
//! * [`parallel`] — `paraRoboGExp` (Algorithm 3): partitioned, multi-threaded
//!   generation with bitmap-synchronized verification.
//! * `session` (private) — the per-query tier: the expand–verify sessions
//!   both drivers and the engine execute, parameterized by shared caches,
//!   plus [`SessionBudget`] — the cooperative request-deadline hook a
//!   serving layer threads into budgeted queries.
//! * [`engine`] — the long-lived [`WitnessEngine`]: engine-lifetime shared
//!   state (graph + CSR, partition, neighborhoods, PPR rows),
//!   a witness store answering repeated queries warm, and
//!   [`WitnessEngine::disturb`] — mutation epochs with footprint-based cache
//!   invalidation and in-place witness repair.
//!
//! ## Quick start
//!
//! ```
//! use rcw_core::{RcwConfig, RoboGExp};
//! use rcw_gnn::{Appnp, GnnModel, TrainConfig};
//! use rcw_graph::{Graph, GraphView};
//!
//! // a tiny two-community graph
//! let mut g = Graph::new();
//! for i in 0..8 {
//!     let class = usize::from(i >= 4);
//!     let feats = if class == 0 { vec![1.0, 0.0] } else { vec![0.0, 1.0] };
//!     g.add_labeled_node(feats, class);
//! }
//! for u in 0..4 { for v in (u + 1)..4 { g.add_edge(u, v); } }
//! for u in 4..8 { for v in (u + 1)..8 { g.add_edge(u, v); } }
//! g.add_edge(3, 4);
//!
//! // a fixed deterministic APPNP classifier
//! let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 10, 1);
//! let nodes: Vec<usize> = (0..8).collect();
//! appnp.train(&GraphView::full(&g), &nodes, &TrainConfig::default());
//!
//! // generate a 1-robust counterfactual witness for node 0
//! let result = RoboGExp::for_appnp(&appnp, RcwConfig::with_budgets(1, 1)).generate(&g, &[0]);
//! assert!(result.witness.subgraph.contains_node(0));
//! ```

pub mod config;
pub mod engine;
pub mod generate;
pub mod model;
pub mod parallel;
pub(crate) mod session;
pub mod verify;
pub mod verify_appnp;
pub mod witness;

pub use config::RcwConfig;
pub use engine::{
    DisturbReport, EngineCaches, EngineFaultHook, EngineSnapshot, EngineStats, EntryRepair,
    RepairOutcome, StoredWitness, WitnessEngine, FAULT_SITE_REGEN, FAULT_SITE_REPAIR,
};
pub use generate::{GenerationResult, GenerationStats, RoboGExp};
pub use model::{DisturbanceSearch, VerifiableModel};
pub use parallel::{ParaRoboGExp, ParallelGenerationResult, ParallelStats};
pub use session::{BudgetExceeded, SessionBudget};
pub use verify::{
    candidate_pairs_bounded, candidate_pairs_cached, disturbance_preserves_cw,
    verify_counterfactual, verify_factual, verify_rcw, PRUNE_ALPHA,
};
pub use verify_appnp::verify_rcw_appnp;
pub use witness::{VerifyOutcome, Witness, WitnessLevel};

#[cfg(test)]
mod proptests {
    use super::*;
    use rcw_gnn::{Appnp, GnnModel, TrainConfig};
    use rcw_graph::{generators, EdgeSubgraph, Graph, GraphView};

    /// Builds a labeled two-block graph and a quick-trained APPNP on it.
    fn build(seed: u64) -> (Graph, Appnp) {
        let g = build_graph(seed);
        let appnp = train_on(&g, seed);
        (g, appnp)
    }

    /// The graph half of `build`, for sweeps that train per candidate.
    fn build_graph(seed: u64) -> Graph {
        let (mut g, blocks) = generators::stochastic_block_model(&[8, 8], 0.6, 0.05, seed);
        generators::ensure_connected(&mut g, seed);
        for (v, &b) in blocks.iter().enumerate() {
            let feats = if b == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            g.set_features(v, feats);
            g.set_label(v, b);
        }
        g
    }

    /// Trains the sweep's APPNP on an arbitrary 2-feature graph — split out
    /// of `build` so the failure shrinker can retrain on candidate graphs.
    fn train_on(g: &Graph, seed: u64) -> Appnp {
        let mut appnp = Appnp::new(&[2, 6, 2], 0.2, 10, seed);
        let nodes: Vec<usize> = (0..g.num_nodes()).collect();
        appnp.train(
            &GraphView::full(g),
            &nodes,
            &TrainConfig {
                epochs: 60,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        appnp
    }

    /// Shrink-on-failure harness shared by the lemma sweeps: if `check`
    /// panics on the generated graph, greedily minimize the graph (model
    /// retrained per candidate) and fail with the minimal counterexample.
    fn check_shrinking(g: &Graph, seed: u64, check: impl Fn(&Graph, &Appnp, u64)) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let run = |g: &Graph| check(g, &train_on(g, seed), seed);
        let Err(original) = catch_unwind(AssertUnwindSafe(|| run(g))) else {
            return;
        };
        let message = original
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| original.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let minimal = rcw_graph::shrink_graph(g, &|candidate| {
            candidate.num_nodes() >= 2 && catch_unwind(AssertUnwindSafe(|| run(candidate))).is_err()
        });
        std::panic::set_hook(prev_hook);
        panic!(
            "seed {seed}: {message}\nminimal failing graph: {}",
            rcw_graph::describe_graph(&minimal),
        );
    }

    /// Seeds exercised by the property-style tests below. The suite used to
    /// be driven by `proptest`; the workspace builds offline, so the same
    /// properties are now checked over a fixed, pinned seed sweep. Setting
    /// `RCW_LEMMA_SEEDS=<n>` widens the sweep to `n` deterministic seeds
    /// (nightly CI runs deeper fuzzing without slowing the tier-1 suite; the
    /// default is unchanged when the variable is unset) — the same convention
    /// as `RCW_REPAIR_SEEDS` in `tests/engine_repair.rs`.
    fn lemma_seeds() -> Vec<u64> {
        const DEFAULT: [u64; 8] = [0, 5, 11, 17, 23, 29, 31, 37];
        match std::env::var("RCW_LEMMA_SEEDS") {
            Ok(n) => {
                let n: u64 = n
                    .parse()
                    .expect("RCW_LEMMA_SEEDS must be a seed count, e.g. RCW_LEMMA_SEEDS=64");
                (0..n).map(|i| i.wrapping_mul(6).wrapping_add(5)).collect()
            }
            Err(_) => DEFAULT.to_vec(),
        }
    }

    /// Lemma 1 (monotonicity): a witness verified k-robust is also
    /// verified k'-robust for every k' <= k, and for every subset of its
    /// test nodes.
    #[test]
    fn lemma1_monotonicity() {
        fn case(g: &Graph, appnp: &Appnp, seed: u64) {
            let tests = vec![0usize, g.num_nodes() - 1];
            let cfg = RcwConfig::with_budgets(2, 1);
            let gen = RoboGExp::for_appnp(appnp, cfg.clone());
            let result = gen.generate(g, &tests);
            if result.level == WitnessLevel::Robust {
                // smaller k
                for k in 0..=1usize {
                    let cfg_k = RcwConfig::with_budgets(k, if k == 0 { 0 } else { 1 });
                    let out = RoboGExp::for_appnp(appnp, cfg_k).verify(g, &result.witness);
                    assert_eq!(
                        out.level,
                        WitnessLevel::Robust,
                        "k-RCW must remain robust for smaller k (seed {seed})"
                    );
                }
                // subset of test nodes
                let sub = Witness::new(
                    result.witness.subgraph.clone(),
                    vec![result.witness.test_nodes[0]],
                    vec![result.witness.labels[0]],
                );
                let out = gen.verify(g, &sub);
                assert_eq!(
                    out.level,
                    WitnessLevel::Robust,
                    "k-RCW must remain robust for a subset of test nodes (seed {seed})"
                );
            }
        }
        for seed in lemma_seeds() {
            check_shrinking(&build_graph(seed), seed, case);
        }
    }

    /// The full graph is always a (trivially) robust witness, and a
    /// node-only witness is never counterfactual on a connected graph
    /// whose prediction actually uses edges.
    #[test]
    fn trivial_witness_facts() {
        for seed in lemma_seeds() {
            let (g, appnp) = build(seed);
            let v = 0usize;
            let full_view = GraphView::full(&g);
            let label = appnp.predict(v, &full_view).unwrap();
            // whole graph: factual by construction, and no disturbance can be
            // applied to G \ G = empty, so it verifies as robust *unless* the
            // counterfactual condition (undefined remainder) is interpreted
            // strictly; we assert it is at least factual.
            let full_w = Witness::trivial_full(&g, vec![v], vec![label]);
            let (factual, _) = verify_factual(&appnp, &g, &full_w);
            assert!(factual, "seed {seed}");
            // node-only witness: may or may not be factual (features alone),
            // but its edge set is empty so G \ Gs == G and it can never be
            // counterfactual.
            let node_w = Witness::new(EdgeSubgraph::from_nodes([v]), vec![v], vec![label]);
            let (cw, _) = verify_counterfactual(&appnp, &g, &node_w);
            assert!(!cw, "seed {seed}");
        }
    }
}
