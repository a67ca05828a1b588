//! In-process probes of each layer, run in the traced run only. Each probe
//! calls a layer's public functions on the reference engines' state and
//! records a span per call (or per batch, for sub-microsecond calls).

use crate::inputs::Event;
use crate::reference::{serve_config, Engine, Models};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use rcw_core::{candidate_pairs_cached, GenerationResult, ParaRoboGExp, PRUNE_ALPHA};
use rcw_gnn::{GnnModel, KernelScratch};
use rcw_graph::{
    disturbance_footprint, edge_cut_partition, BallScratch, Disturbance, GraphView, Locality,
    NodeId,
};
use rcw_pagerank::PprCache;
use rcw_server::wire;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Calls per batch span for the sub-microsecond wire and lookup probes.
const BATCH: usize = 4096;

/// What the probes read.
pub struct ProbeInputs<'a> {
    pub models: &'a Models,
    /// The reference engines after the run's replay (working set stored,
    /// events applied).
    pub engines: &'a [Box<dyn Engine + 'a>; 2],
    /// The reference engines that answered the cold sets.
    pub cold_engines: &'a [Box<dyn Engine + 'a>; 2],
    /// Warm request bodies and the node sets they carry, per route.
    pub warm: [Vec<(String, Vec<NodeId>)>; 2],
    /// Served cold answers, per route.
    pub cold: [Vec<GenerationResult>; 2],
    /// The events the run sent.
    pub events: &'a [Event],
}

/// Runs every probe; returns `(metric, value)` pairs.
pub fn probe(inputs: &ProbeInputs<'_>, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    wire_probes(inputs, tracer, &mut out);
    model_probes(inputs, tracer, &mut out);
    graph_probes(inputs, tracer, &mut out);
    out
}

/// Times `BATCH` calls of `f` per span over `rounds` spans; returns the
/// median nanoseconds per call.
fn batched(
    tracer: &mut Tracer,
    name: &'static str,
    rounds: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let parent = tracer.open(name);
    let mut per_call = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let start = Instant::now();
        for i in 0..BATCH {
            f(r * BATCH + i);
        }
        per_call.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
        tracer.record(name, parent, start);
    }
    tracer.close(parent);
    median(&mut per_call)
}

fn wire_probes(inputs: &ProbeInputs<'_>, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let bodies: Vec<&str> = inputs
        .warm
        .iter()
        .flatten()
        .map(|(b, _)| b.as_str())
        .collect();
    let decode = batched(tracer, "wire.nodes_from_body", 8, |i| {
        black_box(wire::nodes_from_body(black_box(bodies[i % bodies.len()])).ok());
    });
    // Encode what a warm hit returns: the reference engines' stored answers.
    let answers: Vec<GenerationResult> = (0..2)
        .flat_map(|r| {
            inputs.warm[r]
                .iter()
                .map(move |(_, nodes)| inputs.engines[r].generate(nodes))
        })
        .collect();
    let encode = batched(tracer, "wire.generation_to_body", 8, |i| {
        black_box(wire::generation_to_body(black_box(
            &answers[i % answers.len()],
        )));
    });
    let bytes = mean(
        &answers
            .iter()
            .map(|a| wire::generation_to_body(a).len() as f64)
            .collect::<Vec<_>>(),
    );
    let keys: Vec<(usize, &Vec<NodeId>)> = (0..2)
        .flat_map(|r| inputs.warm[r].iter().map(move |(_, n)| (r, n)))
        .collect();
    let lookup = batched(tracer, "engine.generate_warm", 8, |i| {
        let (r, nodes) = keys[i % keys.len()];
        black_box(inputs.engines[r].generate(black_box(nodes)));
    });
    out.push(("wire.decode_ns", decode));
    out.push(("wire.encode_ns", encode));
    out.push(("wire.response_bytes", bytes));
    out.push(("engine.warm_lookup_ns", lookup));
}

fn model_probes(inputs: &ProbeInputs<'_>, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let cfg = serve_config();
    let unbounded = cfg.clone().with_max_candidate_pairs(usize::MAX);
    let mut verify_ms = [Vec::new(), Vec::new()];
    let mut checked = Vec::new();
    let mut pool_ms = Vec::new();
    let (mut pool, mut pool_unpruned) = (0usize, 0usize);
    let mut pools = 0usize;
    let mut ppr_us = Vec::new();
    let mut predict_us = [Vec::new(), Vec::new()];
    let mut margin_us = [Vec::new(), Vec::new()];
    let mut scratch = KernelScratch::default();
    for r in 0..2 {
        let engine = &inputs.cold_engines[r];
        let graph = engine.graph();
        let gnn = inputs.models.gnn(r);
        let ppr = PprCache::new(PRUNE_ALPHA, cfg.ppr_iters);
        for served in &inputs.cold[r] {
            let witness = &served.witness;
            let probe_id = tracer.open("probe.cold_answer");
            let start = Instant::now();
            let outcome = engine.verify(witness);
            verify_ms[r].push(start.elapsed().as_secs_f64() * 1e3);
            tracer.record("verify.verify", probe_id, start);
            checked.push(outcome.disturbances_checked as f64);

            let start = Instant::now();
            let pairs = candidate_pairs_cached(
                &graph,
                witness.edges(),
                &witness.test_nodes,
                &cfg,
                Some(&ppr),
            );
            pool_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tracer.record("candidates.pool", probe_id, start);
            let all = candidate_pairs_cached(
                &graph,
                witness.edges(),
                &witness.test_nodes,
                &unbounded,
                None,
            );
            pool += pairs.len();
            pool_unpruned += all.len();
            pools += 1;

            for (i, &v) in witness.test_nodes.iter().enumerate() {
                let fresh = PprCache::new(PRUNE_ALPHA, cfg.ppr_iters);
                let start = Instant::now();
                black_box(fresh.row(graph.csr(), v, graph.epoch()));
                ppr_us.push(start.elapsed().as_secs_f64() * 1e6);
                tracer.record("pagerank.row", probe_id, start);

                let full = GraphView::full(&graph);
                let start = Instant::now();
                black_box(gnn.predict_with(v, &full, &mut scratch));
                predict_us[r].push(start.elapsed().as_secs_f64() * 1e6);
                tracer.record("gnn.predict_with", probe_id, start);

                let removals: Vec<(NodeId, NodeId)> = pairs
                    .iter()
                    .copied()
                    .filter(|&(a, b)| graph.has_edge(a, b))
                    .collect();
                if !removals.is_empty() {
                    let base = GraphView::without(&graph, witness.edges());
                    let label = witness.labels[i];
                    let start = Instant::now();
                    black_box(gnn.margin_many_removed_with(
                        v,
                        label,
                        &base,
                        &removals,
                        &mut scratch,
                    ));
                    margin_us[r].push(start.elapsed().as_secs_f64() * 1e6 / removals.len() as f64);
                    tracer.record("gnn.margin_many_removed_with", probe_id, start);
                }
            }
            tracer.close(probe_id);
        }
    }
    // paraRoboGExp's own statistics on the APPNP cold sets.
    let para = ParaRoboGExp::for_appnp(&inputs.models.appnp, cfg.clone(), 2);
    let graph = inputs.cold_engines[1].graph();
    let (mut rounds, mut synced) = (Vec::new(), Vec::new());
    for served in &inputs.cold[1] {
        let start = Instant::now();
        let result = para.generate(&graph, &served.witness.test_nodes);
        tracer.record("parallel.generate", 0, start);
        rounds.push(result.parallel.rounds as f64);
        synced.push(result.parallel.bytes_synchronized as f64);
    }
    let median_of = |xs: &mut Vec<f64>| if xs.is_empty() { 0.0 } else { median(xs) };
    out.push(("verify.gcn_ms", median_of(&mut verify_ms[0])));
    out.push(("verify.appnp_ms", median_of(&mut verify_ms[1])));
    out.push(("verify.disturbances_checked", mean(&checked)));
    out.push(("candidates.pool_ms", median_of(&mut pool_ms)));
    out.push(("candidates.pool_size", pool as f64 / pools.max(1) as f64));
    out.push((
        "candidates.pruned_share",
        1.0 - pool as f64 / pool_unpruned.max(1) as f64,
    ));
    out.push(("pagerank.ppr_row_us", median_of(&mut ppr_us)));
    let per_route = |xs: &mut [Vec<f64>; 2]| {
        let [a, b] = xs;
        (median_of(a) + median_of(b)) / 2.0
    };
    out.push(("gnn.predict_us", per_route(&mut predict_us)));
    out.push(("gnn.margin_us_per_candidate", per_route(&mut margin_us)));
    out.push(("parallel.rounds", mean(&rounds)));
    out.push(("parallel.bytes_synchronized", mean(&synced)));
}

fn graph_probes(inputs: &ProbeInputs<'_>, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let cfg = serve_config();
    let mut ball_us = [Vec::new(), Vec::new()];
    let mut flip_us = Vec::new();
    let mut footprint = Vec::new();
    let mut refresh_ms = Vec::new();
    let mut scratch = BallScratch::default();
    let mut ball = Locality::default();
    for (r, route_us) in ball_us.iter_mut().enumerate() {
        let graph = inputs.cold_engines[r].graph();
        let gnn = inputs.models.gnn(r);
        let full = GraphView::full(&graph);
        for served in &inputs.cold[r] {
            for &v in &served.witness.test_nodes {
                let start = Instant::now();
                ball.rebuild(&full, v, gnn.receptive_hops(), &mut scratch);
                route_us.push(start.elapsed().as_secs_f64() * 1e6);
                tracer.record("graph.locality_rebuild", 0, start);
            }
        }
    }
    // Events replayed on copies of the original graph, so the probe sees the
    // same graph each event met.
    let hops = inputs.models.appnp.num_layers().max(1);
    let mut graphs = [
        inputs.models.dataset.graph.clone(),
        inputs.models.dataset.graph.clone(),
    ];
    let start = Instant::now();
    let mut partition = edge_cut_partition(&graphs[1], 2, hops);
    let partition_ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.record("graph.edge_cut_partition", 0, start);
    for event in inputs.events {
        let r = event.route;
        let start = Instant::now();
        graphs[r].flip_edges_in_place(&event.flips);
        flip_us.push(start.elapsed().as_secs_f64() * 1e6);
        tracer.record("graph.flip_edges_in_place", 0, start);
        let d = Disturbance::from_pairs(event.flips.iter().copied());
        let radius = inputs
            .models
            .gnn(r)
            .receptive_hops()
            .max(cfg.candidate_hops);
        footprint
            .push(disturbance_footprint(&graphs[r], std::slice::from_ref(&d), radius).len() as f64);
        if r == 1 {
            let touched: BTreeSet<NodeId> = d.touched_nodes();
            let start = Instant::now();
            black_box(partition.refresh_after_disturbance(&graphs[1], &touched, hops));
            refresh_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tracer.record("graph.partition_refresh", 0, start);
        }
    }
    let median_of = |xs: &mut Vec<f64>| if xs.is_empty() { 0.0 } else { median(xs) };
    let [a, b] = &mut ball_us;
    out.push(("graph.ball_build_us", (median_of(a) + median_of(b)) / 2.0));
    out.push(("graph.flip_us", median_of(&mut flip_us)));
    out.push(("graph.footprint_nodes", mean(&footprint)));
    out.push(("graph.partition_ms", partition_ms));
    out.push(("graph.partition_refresh_ms", median_of(&mut refresh_ms)));
}
