//! Seeded equivalence sweep: batched `generate_batch` must be bit-identical
//! to issuing the same queries one at a time through `generate`.
//!
//! `WitnessEngine::generate_batch_with` answers a batch with one warm pass
//! under a single store lock, then the cold tail through the per-request
//! path. The claim this sweep pins: for any batch (all-warm,
//! all-cold, mixed, with in-batch duplicates, before and after a
//! disturbance), the witnesses, levels, and final engine counters are
//! exactly what per-request execution produces. The sweep runs all four
//! served models (GCN, APPNP, GraphSAGE, GAT) over pinned-seed SBM graphs so
//! both verification families and every localized kernel go through the
//! batched path.

use robogexp::core::{RcwConfig, SessionBudget, WitnessEngine};
use robogexp::gnn::{Gat, GraphSage};
use robogexp::graph::{generators, Disturbance};
use robogexp::prelude::*;
use std::sync::Arc;

fn quick_cfg() -> RcwConfig {
    RcwConfig {
        k: 1,
        local_budget: 1,
        candidate_hops: 2,
        max_expand_rounds: 2,
        sampled_disturbances: 4,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    }
}

/// A connected two-block SBM with block-aligned features and labels.
fn sbm(seed: u64) -> Graph {
    let (mut g, blocks) = generators::stochastic_block_model(&[9, 9], 0.65, 0.06, seed);
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

/// The batch script one engine pair runs: three batches (cold, mixed with
/// duplicates, warm) with a disturbance between the second and third.
fn batches(n: usize) -> Vec<Vec<Vec<usize>>> {
    vec![
        // all cold
        vec![vec![0], vec![n - 1], vec![1, n / 2]],
        // mixed: two warm repeats (one re-ordered), one fresh, an in-batch
        // duplicate pair (first instance cold, second must hit the store)
        vec![vec![0], vec![n / 2, 1], vec![2], vec![n / 3], vec![n / 3]],
        // all warm after the disturbance (the repair sweep re-tags entries)
        vec![vec![0], vec![n - 1], vec![2]],
    ]
}

fn run_sweep<M: robogexp::core::VerifiableModel>(seed: u64, graph: &Arc<Graph>, model: &M) {
    let batched = WitnessEngine::new(Arc::clone(graph), model, quick_cfg());
    let sequential = WitnessEngine::new(Arc::clone(graph), model, quick_cfg());
    let n = graph.num_nodes();
    let flip = graph.edge_vec()[seed as usize % graph.num_edges()];

    for (round, batch) in batches(n).into_iter().enumerate() {
        if round == 2 {
            // Disturbance between batches: both engines repair their stores
            // identically, so the equivalence must survive the epoch change.
            batched.disturb(&[Disturbance::from_pairs([flip])]);
            sequential.disturb(&[Disturbance::from_pairs([flip])]);
        }
        let from_batch = batched.generate_batch(&batch);
        let from_seq: Vec<_> = batch.iter().map(|q| sequential.generate(q)).collect();
        for (i, (b, s)) in from_batch.iter().zip(&from_seq).enumerate() {
            assert_eq!(
                b.witness, s.witness,
                "seed {seed} round {round} query {i}: batched witness differs"
            );
            assert_eq!(b.level, s.level, "seed {seed} round {round} query {i}");
            assert_eq!(b.stale, s.stale, "seed {seed} round {round} query {i}");
            assert_eq!(
                b.nontrivial, s.nontrivial,
                "seed {seed} round {round} query {i}"
            );
        }
        // Counters agree after every batch: warm hits, sessions, queries.
        assert_eq!(
            batched.stats(),
            sequential.stats(),
            "seed {seed} round {round}: engine counters diverged"
        );
        assert_eq!(batched.stored_count(), sequential.stored_count());
    }

    // Expired budgets in a batch reject without touching store or counters,
    // exactly like the per-request path.
    let stats_before = batched.stats();
    let expired = SessionBudget::expiring_in(std::time::Duration::ZERO);
    let budgets = vec![expired, SessionBudget::unlimited()];
    let queries = vec![vec![0usize], vec![0usize]];
    let mut outcomes: Vec<Option<bool>> = vec![None, None];
    batched.generate_batch_with(&queries, &budgets, &mut |i, result| {
        outcomes[i] = Some(result.is_ok());
    });
    assert_eq!(outcomes, vec![Some(false), Some(true)]);
    let stats_after = batched.stats();
    assert_eq!(stats_after.queries, stats_before.queries + 1);
    assert_eq!(stats_after.warm_hits, stats_before.warm_hits + 1);
}

#[test]
fn batched_generation_is_bit_identical_to_per_request() {
    for seed in [2u64, 7, 19] {
        let g = Arc::new(sbm(seed));
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..g.num_nodes()).collect();
        let tc = robogexp::gnn::TrainConfig {
            epochs: 60,
            learning_rate: 0.05,
            ..robogexp::gnn::TrainConfig::default()
        };
        let mut gcn = Gcn::new(&[2, 8, 2], 2);
        gcn.train(&view, &train, &tc);
        run_sweep(seed, &g, &gcn);
        let mut appnp = Appnp::new(&[2, 6, 2], 0.2, 10, 2);
        appnp.train(&view, &train, &tc);
        run_sweep(seed, &g, &appnp);
        // SAGE and GAT are inference-only: seeded weights, no training
        run_sweep(seed, &g, &GraphSage::new(&[2, 8, 2], seed));
        run_sweep(seed, &g, &Gat::new(&[2, 8, 2], seed));
    }
}
