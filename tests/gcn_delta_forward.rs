//! GCN's delta forward against the exact forward, end to end.
//!
//! `Gcn` answers every variant of a stored base — the generator's removal
//! variants and the verifier's flip variants — by recomputing only the rows
//! a changed edge reaches. `ExactGcn` wraps the same model but keeps the
//! trait's default forward over each variant. Whole engine sessions
//! (queries, a disturbance with repair, re-queries, verification) must
//! return identical results through both, and `verify_rcw` must reach the
//! verdicts a per-disturbance check on explicitly flipped views reaches.

use robogexp::core::{
    candidate_pairs_cached, disturbance_preserves_cw, verify_rcw, DisturbReport, EngineCaches,
    GenerationResult, VerifiableModel, PRUNE_ALPHA,
};
use robogexp::datasets::citeseer;
use robogexp::gnn::ForwardScratch;
use robogexp::graph::disturbance::{enumerate_disturbances_up_to, random_disturbance_from};
use robogexp::graph::{Disturbance, ForwardCtx};
use robogexp::linalg::rng::Rng;
use robogexp::linalg::Matrix;
use robogexp::pagerank::PprCache;
use robogexp::prelude::*;
use std::sync::Arc;

/// `Gcn` with the trait's default variant answers: every removal and flip
/// variant runs the full forward over the variant ball.
struct ExactGcn(Gcn);

impl GnnModel for ExactGcn {
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
    fn forward_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.0.forward_into(ctx, x, scratch)
    }
}

impl VerifiableModel for ExactGcn {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
}

/// `rcw_serve`'s session config.
fn serve_config() -> RcwConfig {
    RcwConfig {
        k: 2,
        local_budget: 2,
        candidate_hops: 2,
        max_expand_rounds: 3,
        sampled_disturbances: 6,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    }
}

/// Every field of a result except its wall-clock time.
fn answer(r: &GenerationResult) -> String {
    format!(
        "{:?} {:?} {} {} {} {} {}",
        r.witness,
        r.level,
        r.nontrivial,
        r.stale,
        r.stats.inference_calls,
        r.stats.disturbances_verified,
        r.stats.expand_rounds
    )
}

/// Every field of a disturbance report except its wall-clock time and the
/// graph epoch (epochs are process-wide, so two engines never share one).
fn report(r: &DisturbReport) -> String {
    let entries: Vec<String> = r
        .entries
        .iter()
        .map(|e| format!("{:?} {:?} {}", e.test_nodes, e.outcome, answer(&e.result)))
        .collect();
    format!(
        "{} {} {} {} {} {} {} {} {} {} {entries:?}",
        r.flips_applied,
        r.footprint_size,
        r.untouched,
        r.reverified,
        r.repaired,
        r.regenerated,
        r.degraded,
        r.stats.inference_calls,
        r.stats.disturbances_verified,
        r.stats.expand_rounds
    )
}

/// Node sets of one to four test-pool nodes, canonical.
fn queries(pool: &[NodeId], seed: u64) -> Vec<Vec<NodeId>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..40)
        .map(|i| {
            let mut set: Vec<NodeId> = (0..1 + i % 4)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

#[test]
fn engine_sessions_match_the_exact_model() {
    for scale in [Scale::Tiny, Scale::Small] {
        let ds = citeseer::build(scale, 5);
        let gcn = ds.train_gcn(16, 5);
        let exact = ExactGcn(gcn.clone());
        let cfg = serve_config();
        let queries = queries(&ds.test_pool, 5);
        let v = queries[0][0];
        let neighbor = ds
            .graph
            .neighbors(v)
            .next()
            .expect("query node has an edge");
        let far = (v + ds.graph.num_nodes() / 2) % ds.graph.num_nodes();
        let disturbance = Disturbance::from_pairs([(v, neighbor), (v, far)]);
        for workers in [1, 2] {
            let graph = || Arc::new(ds.graph.clone());
            let delta = WitnessEngine::new(graph(), &gcn, cfg.clone()).with_workers(workers);
            let plain = WitnessEngine::new(graph(), &exact, cfg.clone()).with_workers(workers);
            let case = |phase: &str, i: usize, q: &[NodeId]| {
                format!("{scale:?}, {workers} workers, {phase} {i} {q:?}")
            };
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    answer(&delta.generate(q)),
                    answer(&plain.generate(q)),
                    "{}",
                    case("query", i, q)
                );
            }
            let (a, b) = (
                delta.disturb(std::slice::from_ref(&disturbance)),
                plain.disturb(std::slice::from_ref(&disturbance)),
            );
            assert!(
                !a.entries.is_empty(),
                "the disturbance must reach stored entries"
            );
            assert_eq!(report(&a), report(&b), "{scale:?}, {workers} workers");
            for (i, q) in queries.iter().enumerate() {
                let (r, s) = (delta.generate(q), plain.generate(q));
                assert_eq!(answer(&r), answer(&s), "{}", case("re-query", i, q));
                assert_eq!(
                    delta.verify(&r.witness),
                    plain.verify(&s.witness),
                    "{}",
                    case("verify", i, q)
                );
            }
        }
    }
}

/// The verifier before flip bases: every disturbance checked on explicitly
/// flipped views, each predict building its own ball.
fn per_view_verify(
    model: &Gcn,
    graph: &Graph,
    witness: &Witness,
    cfg: &RcwConfig,
) -> VerifyOutcome {
    let fresh = verify_rcw(
        model,
        graph,
        witness,
        &RcwConfig {
            k: 0,
            ..cfg.clone()
        },
        &EngineCaches::new(cfg),
    );
    if fresh.level != WitnessLevel::Robust {
        return fresh;
    }
    let ppr = PprCache::new(PRUNE_ALPHA, cfg.ppr_iters);
    let candidates =
        candidate_pairs_cached(graph, witness.edges(), &witness.test_nodes, cfg, Some(&ppr));
    let disturbances: Vec<EdgeSet> = if candidates.len() <= cfg.exhaustive_limit {
        enumerate_disturbances_up_to(&candidates, cfg.k.min(candidates.len()))
            .into_iter()
            .filter(|d| d.respects_local_budget(cfg.local_budget))
            .map(|d| d.pairs().clone())
            .collect()
    } else {
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
    let mut out = VerifyOutcome {
        disturbances_checked: 0,
        ..fresh
    };
    for d in disturbances {
        out.disturbances_checked += 1;
        let (ok, calls) = disturbance_preserves_cw(model, graph, witness, &d);
        out.inference_calls += calls;
        if !ok {
            out.level = WitnessLevel::Counterfactual;
            out.counterexample = Some(d);
            return out;
        }
    }
    out
}

#[test]
fn flip_bases_reach_the_per_view_verdicts() {
    // Served witnesses on CiteSeer Small, verified at the served config,
    // with insertion candidates in the pool, and exhaustively.
    let ds = citeseer::build(Scale::Small, 3);
    let gcn = ds.train_gcn(16, 3);
    let served = serve_config();
    let mixed = RcwConfig {
        strategy: robogexp::graph::DisturbanceStrategy::Mixed,
        ..served.clone()
    };
    let exhaustive = RcwConfig {
        exhaustive_limit: 40,
        ..mixed.clone()
    };
    let generator = RoboGExp::new(&gcn, served.clone());
    let mut checked = 0;
    for q in queries(&ds.test_pool, 3) {
        let witness = generator.generate(&ds.graph, &q).witness;
        for cfg in [&served, &mixed, &exhaustive] {
            let shared = verify_rcw(&gcn, &ds.graph, &witness, cfg, &EngineCaches::new(cfg));
            assert_eq!(
                shared,
                per_view_verify(&gcn, &ds.graph, &witness, cfg),
                "{q:?} under {:?}/{}",
                cfg.strategy,
                cfg.exhaustive_limit
            );
            checked += shared.disturbances_checked;
        }
    }
    assert!(checked >= 200, "only {checked} disturbances checked");
}
