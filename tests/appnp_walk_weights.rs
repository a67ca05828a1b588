//! APPNP's certified walk-weight answers against the exact forward.
//!
//! `Appnp` answers label decisions from walk weights: the generator's
//! removal-variant queries (`removal_keeps_label`, `removal_ranking_keys`
//! and `first_flipping_prefix`, which walk up to eight removal variants of
//! the shared ball together) and every `predict_with`. It runs the exact
//! forward only where a floating-point error bound cannot certify the
//! answer. These tests pin every answer against the exact defaults on seeded
//! SBM graphs and on CiteSeer Tiny/Small: ranking blocks of 1, 7, 8, 9 and 17
//! candidates, prefixes that share endpoints or reach past the ball, and
//! predictions over restricted, remainder and flipped views. They force the
//! exact near-tie path with a symmetric construction, and check that whole
//! engine sessions (queries, a disturbance, repair, re-queries) return
//! identical results with and without the walk-weight answers.

use robogexp::core::{
    DisturbReport, DisturbanceSearch, EngineCaches, GenerationResult, VerifiableModel,
};
use robogexp::datasets::citeseer;
use robogexp::gnn::model::{localized_logits_row, removal_logits_into, removal_margins};
use robogexp::gnn::{ForwardScratch, KernelScratch};
use robogexp::graph::generators::{ensure_connected, stochastic_block_model};
use robogexp::graph::traversal::k_hop_neighborhood;
use robogexp::graph::{norm_edge, Disturbance, Edge, ForwardCtx};
use robogexp::linalg::rng::Rng;
use robogexp::linalg::{vector, Matrix};
use robogexp::prelude::*;
use std::sync::Arc;

/// A seeded SBM with block-aligned features and labels.
fn sbm_graph(seed: u64) -> Graph {
    let per_block = 8 + (seed as usize % 5);
    let (mut g, blocks) =
        stochastic_block_model(&[per_block, per_block, per_block], 0.4, 0.06, seed);
    ensure_connected(&mut g, seed.wrapping_add(77));
    let mut rng = Rng::seed_from_u64(seed ^ 0x51ED);
    for (v, &b) in blocks.iter().enumerate() {
        let mut feats = vec![0.0; 4];
        feats[b] = 1.0;
        feats[3] = rng.gen_range(0usize..10) as f64 / 10.0;
        g.set_features(v, feats);
        g.set_label(v, b);
    }
    g
}

/// The generator's candidate pool for `v`, deduplicated: edges incident to
/// `v`, then edges among its 2-hop neighborhood, capped at 48.
fn candidate_pool(g: &Graph, v: NodeId) -> Vec<Edge> {
    let hood = k_hop_neighborhood(g, v, 2);
    let mut pool: Vec<Edge> = g.neighbors(v).map(|u| norm_edge(v, u)).collect();
    for &u in &hood {
        for w in g.neighbors(u) {
            let e = norm_edge(u, w);
            if u != v && w != v && hood.contains(&w) && !pool.contains(&e) {
                pool.push(e);
            }
        }
    }
    pool.truncate(48);
    pool
}

/// Candidate indices stably sorted by key, as the generator sorts them.
fn stable_order(keys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&i, &j| {
        keys[i]
            .partial_cmp(&keys[j])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// Candidate-block sizes the ranking is checked at: a lone column, a block
/// one short of full, a full block, one past it, and two blocks plus one.
const BLOCK_SIZES: [usize; 5] = [1, 7, 8, 9, 17];

/// The views a prediction is checked on: `v`'s incident edges and 1-hop ball
/// alone, the graph without them, and the graph with a few pool pairs
/// flipped (removals sharing endpoints, and insertions).
fn prediction_views<'g>(g: &'g Graph, v: NodeId, pool: &[Edge]) -> Vec<GraphView<'g>> {
    let incident: EdgeSet = g.neighbors(v).map(|u| (v, u)).collect();
    let ball: EdgeSet = k_hop_neighborhood(g, v, 1)
        .iter()
        .flat_map(|&u| g.neighbors(u).map(move |w| (u, w)))
        .collect();
    let hood = k_hop_neighborhood(g, v, 2);
    let absent: Vec<Edge> = hood
        .iter()
        .flat_map(|&a| hood.iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a < b && !g.has_edge(a, b))
        .step_by(3)
        .take(3)
        .collect();
    let flips: EdgeSet = pool
        .iter()
        .step_by(2)
        .take(3)
        .chain(&absent)
        .copied()
        .collect();
    let full = GraphView::full(g);
    vec![
        full.clone(),
        GraphView::restricted_to(g, &incident),
        GraphView::restricted_to(g, &ball),
        GraphView::without(g, &incident),
        GraphView::without(g, &ball),
        full.flipped(&flips),
        GraphView::without(g, &incident).flipped(&absent.iter().copied().collect()),
    ]
}

/// Checks every walk-weight answer of `model` for center `v` under `base`
/// against the exact defaults, with one scratch throughout (so predictions
/// interleave with the removal base); returns how many ranking keys came
/// from the walk (differ from the exact margin), to show the walk path ran.
fn assert_walk_answers_exact(case: &str, model: &Appnp, v: NodeId, base: &GraphView<'_>) -> usize {
    let mut scratch = KernelScratch::default();
    model.set_removal_base(v, base, &mut scratch);
    let pool: Vec<Edge> = candidate_pool(base.graph(), v)
        .into_iter()
        .filter(|&(a, b)| base.has_edge(a, b))
        .collect();
    let mut walk_keys = 0;
    for label in 0..model.num_classes() {
        for size in BLOCK_SIZES.into_iter().chain([pool.len()]) {
            let block = &pool[..size.min(pool.len())];
            let keys = model.removal_ranking_keys(label, block, &mut scratch);
            let exact = removal_margins(model, label, block, &mut scratch);
            assert_eq!(
                stable_order(&keys),
                stable_order(&exact),
                "{case}: node {v}, label {label}, {size} candidates: walk ranking differs"
            );
            walk_keys += keys.iter().zip(&exact).filter(|(k, e)| k != e).count();
        }
    }
    for view in prediction_views(base.graph(), v, &pool) {
        let exact = vector::argmax(&localized_logits_row(model, v, &view));
        assert_eq!(
            model.predict_with(v, &view, &mut scratch),
            Some(exact),
            "{case}: node {v}: prediction differs from the exact forward"
        );
    }
    let singles = pool.iter().map(std::slice::from_ref);
    let prefixes = (2..=pool.len().min(8)).map(|n| &pool[..n]);
    for removed in std::iter::once(&pool[..0]).chain(singles).chain(prefixes) {
        for label in 0..model.num_classes() {
            let exact = vector::argmax(removal_logits_into(model, removed, &mut scratch)) == label;
            assert_eq!(
                model.removal_keeps_label(label, removed, &mut scratch),
                exact,
                "{case}: node {v} without {removed:?}: label {label} decision differs"
            );
        }
    }
    // The first flipping prefix against the sequential exact default, in
    // pool order (the first prefixes share `v`) and in the order the
    // generator absorbs edges (by exact margin), cut at every block size.
    for label in 0..model.num_classes() {
        let margins = removal_margins(model, label, &pool, &mut scratch);
        let ranked: Vec<Edge> = stable_order(&margins).iter().map(|&i| pool[i]).collect();
        for edges in [&pool, &ranked] {
            let first = (0..edges.len()).find(|&i| {
                vector::argmax(removal_logits_into(model, &edges[..=i], &mut scratch)) != label
            });
            for size in BLOCK_SIZES.into_iter().chain([edges.len()]) {
                let edges = &edges[..size.min(edges.len())];
                assert_eq!(
                    model.first_flipping_prefix(label, edges, &mut scratch),
                    first.filter(|&i| i < edges.len()),
                    "{case}: node {v}, label {label}, {size} prefixes: first flip differs"
                );
            }
        }
    }
    walk_keys
}

/// The bases a session meets: the whole graph, and remainders of witnesses
/// that hold `v`'s incident edges or its whole 1-hop ball.
fn bases(g: &Graph, v: NodeId) -> [GraphView<'_>; 3] {
    let incident: EdgeSet = g.neighbors(v).map(|u| (v, u)).collect();
    let ball: EdgeSet = k_hop_neighborhood(g, v, 1)
        .iter()
        .flat_map(|&u| g.neighbors(u).map(move |w| (u, w)))
        .collect();
    [
        GraphView::full(g),
        GraphView::without(g, &incident),
        GraphView::without(g, &ball),
    ]
}

#[test]
fn walk_answers_equal_the_exact_defaults_on_sbm_sweeps() {
    let mut walk_keys = 0;
    for seed in 0u64..6 {
        let g = sbm_graph(seed);
        let n = g.num_nodes();
        // one- and two-hop walks leave pool edges with one or both
        // endpoints outside the ball
        for (alpha, iters) in [(0.15, 7), (0.2, 7), (0.85, 7), (0.85, 1), (0.2, 2)] {
            let model = Appnp::new(&[4, 6, 3], alpha, iters, seed);
            for v in [0, n / 3, n / 2, n - 1] {
                for (i, base) in bases(&g, v).iter().enumerate() {
                    let case = format!("sbm seed {seed} alpha {alpha} iters {iters} base {i}");
                    walk_keys += assert_walk_answers_exact(&case, &model, v, base);
                }
            }
        }
    }
    assert!(walk_keys > 0, "no ranking key came from the walk weights");
}

#[test]
fn walk_answers_equal_the_exact_defaults_on_citeseer() {
    let mut walk_keys = 0;
    for (scale, seed) in [(Scale::Tiny, 3), (Scale::Tiny, 4), (Scale::Small, 7)] {
        let ds = citeseer::build(scale, seed);
        let model = ds.train_appnp(16, seed);
        for &v in ds.pick_test_nodes(4, seed).iter() {
            for (i, base) in bases(&ds.graph, v).iter().enumerate() {
                let case = format!("citeseer {scale:?} seed {seed} base {i}");
                walk_keys += assert_walk_answers_exact(&case, &model, v, base);
            }
        }
    }
    assert!(walk_keys > 0, "no ranking key came from the walk weights");
}

#[test]
fn mirror_leaves_tie_bit_for_bit_and_keep_position_order() {
    // Node 0 of a seeded SBM gets two extra leaves with identical features.
    // Removing either leaf gives bit-equal exact margins, and their walk
    // keys tie too: both must be re-scored by the exact forward (their keys
    // are the exact margins, bit for bit, although the walk keys of the
    // other candidates are not), and a stable sort must keep the two in
    // position order.
    let mut walk_keys = 0;
    for seed in 0u64..4 {
        let mut g = sbm_graph(seed);
        let leaves = [
            g.add_labeled_node(vec![0.7, 0.1, 0.3, 0.2], 0),
            g.add_labeled_node(vec![0.7, 0.1, 0.3, 0.2], 0),
        ];
        for leaf in leaves {
            g.add_edge(0, leaf);
        }
        let model = Appnp::new(&[4, 6, 3], 0.85, 12, seed);
        let mut scratch = KernelScratch::default();
        model.set_removal_base(0, &GraphView::full(&g), &mut scratch);
        let pool = candidate_pool(&g, 0);
        let mut reversed = pool.clone();
        reversed.reverse();
        for pool in [pool, reversed] {
            let (first, second) = (
                pool.iter().position(|&(_, b)| leaves.contains(&b)).unwrap(),
                pool.iter()
                    .rposition(|&(_, b)| leaves.contains(&b))
                    .unwrap(),
            );
            for label in 0..3 {
                let keys = model.removal_ranking_keys(label, &pool, &mut scratch);
                let exact = removal_margins(&model, label, &pool, &mut scratch);
                assert_eq!(exact[first].to_bits(), exact[second].to_bits());
                assert_eq!(keys[first].to_bits(), exact[first].to_bits(), "seed {seed}");
                assert_eq!(
                    keys[second].to_bits(),
                    exact[second].to_bits(),
                    "seed {seed}"
                );
                let order = stable_order(&keys);
                assert_eq!(order, stable_order(&exact), "seed {seed}, label {label}");
                let pos = |i| order.iter().position(|&o| o == i).unwrap();
                assert_eq!(
                    pos(second),
                    pos(first) + 1,
                    "mirror leaves leave position order"
                );
                walk_keys += keys.iter().zip(&exact).filter(|(k, e)| k != e).count();
            }
        }
    }
    assert!(walk_keys > 0, "no ranking key came from the walk weights");
}

/// `Appnp` with every trait default: the kernels and the verifier are
/// `Appnp`'s, but the generator's `predict_with`, `removal_keeps_label`,
/// `removal_ranking_keys` and `first_flipping_prefix` always run the exact
/// forward. (The verifier's own predictions are `Appnp`'s, pinned by the
/// prediction sweeps above.)
struct ExactAppnp(Appnp);

impl GnnModel for ExactAppnp {
    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }
    fn num_layers(&self) -> usize {
        self.0.num_layers()
    }
    fn feature_dim(&self) -> usize {
        self.0.feature_dim()
    }
    fn receptive_hops(&self) -> usize {
        self.0.receptive_hops()
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
    fn local_inputs_into(&self, graph: &Graph, nodes: &[NodeId], out: &mut Matrix) {
        self.0.local_inputs_into(graph, nodes, out)
    }
    fn forward_local_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        inputs: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.0.forward_local_into(ctx, inputs, scratch)
    }
}

impl VerifiableModel for ExactAppnp {
    fn as_gnn(&self) -> &dyn GnnModel {
        self
    }
    fn verify_rcw(
        &self,
        graph: &Graph,
        witness: &Witness,
        cfg: &RcwConfig,
        caches: &EngineCaches,
    ) -> VerifyOutcome {
        self.0.verify_rcw(graph, witness, cfg, caches)
    }
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
        self.0
            .search_disturbance(graph, witness, test_nodes, labels, candidates, cfg, salt)
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

#[test]
fn engine_sessions_match_the_exact_model() {
    let ds = citeseer::build(Scale::Tiny, 5);
    let appnp = ds.train_appnp(16, 5);
    let exact = ExactAppnp(appnp.clone());
    let cfg = RcwConfig {
        k: 2,
        local_budget: 2,
        candidate_hops: 2,
        max_expand_rounds: 3,
        sampled_disturbances: 6,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    };
    let mut rng = Rng::seed_from_u64(5);
    let pool = &ds.test_pool;
    let queries: Vec<Vec<NodeId>> = (0..40)
        .map(|i| {
            let mut set: Vec<NodeId> = (0..1 + i % 4)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect();
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
        let walk = WitnessEngine::new(graph(), &appnp, cfg.clone()).with_workers(workers);
        let plain = WitnessEngine::new(graph(), &exact, cfg.clone()).with_workers(workers);
        for (phase, q) in queries.iter().enumerate() {
            assert_eq!(
                answer(&walk.generate(q)),
                answer(&plain.generate(q)),
                "{workers} workers, query {phase} {q:?}"
            );
        }
        let (a, b) = (
            walk.disturb(std::slice::from_ref(&disturbance)),
            plain.disturb(std::slice::from_ref(&disturbance)),
        );
        assert!(
            !a.entries.is_empty(),
            "the disturbance must reach stored entries"
        );
        assert_eq!(report(&a), report(&b), "{workers} workers: disturb report");
        for (phase, q) in queries.iter().enumerate() {
            assert_eq!(
                answer(&walk.generate(q)),
                answer(&plain.generate(q)),
                "{workers} workers, re-query {phase} {q:?}"
            );
        }
    }
}
