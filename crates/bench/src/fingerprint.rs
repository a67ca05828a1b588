//! Answer fingerprint: a fixed, seeded serving workload run in-process, with
//! every answer printed as one canonical line of discrete outputs (witness
//! edges, level, counters — no floats, no times) and folded into one FNV-1a
//! digest per engine.
//!
//! The committed `ANSWERS.json` at the workspace root holds the digests.
//! A change that must keep answers byte-identical leaves them as they are;
//! a change that moves answers on purpose regenerates the file and declares
//! the diff. `rcw_fingerprint` prints the lines and compares the digests.
//!
//! Engines: `rcw_serve`'s session config ([`serve_config`] at its default
//! `k`) on CiteSeer Tiny and Small (GCN at
//! one worker, APPNP at one and two workers, models trained as `rcw_serve`
//! trains them) and untrained GraphSAGE and GAT on a seeded SBM. Each runs
//! the same script: cold queries, disturbances with repair, the same
//! queries again, then `WitnessEngine::verify` on every re-queried witness.

use crate::replay::Fnv;
use rcw_core::{DisturbReport, GenerationResult, VerifiableModel, VerifyOutcome, WitnessEngine};
use rcw_datasets::{citeseer, Scale};
use rcw_gnn::{Gat, GraphSage};
use rcw_graph::generators::{ensure_connected, stochastic_block_model};
use rcw_graph::{Disturbance, Edge, Graph, NodeId};
use rcw_linalg::rng::Rng;
use rcw_server::serve_config;
use std::sync::Arc;

/// Seed of the datasets, the trained models and the query draws
/// (`rcw_serve`'s default).
const SEED: u64 = 7;
/// `rcw_serve`'s default disturbance budget.
const K: usize = 2;
/// Node sets queried per engine.
const QUERIES: usize = 40;

/// One engine's canonical answer lines and their digest.
#[derive(Clone, Debug)]
pub struct EngineFingerprint {
    /// Stable engine name (dataset, model, workers).
    pub name: String,
    /// One canonical line per answer, in run order.
    pub lines: Vec<String>,
    /// FNV-1a over the lines, each followed by a newline.
    pub digest: u64,
}

/// Runs every engine of the workload.
pub fn run() -> Vec<EngineFingerprint> {
    let mut out = Vec::new();
    for (scale, tag) in [(Scale::Tiny, "tiny"), (Scale::Small, "small")] {
        let ds = citeseer::build(scale, SEED);
        let pool = ds.test_pool.clone();
        let gcn = ds.train_gcn(16, SEED);
        out.push(fingerprint(
            format!("citeseer-{tag}/gcn/1"),
            &ds.graph,
            &gcn,
            1,
            &pool,
        ));
        let appnp = ds.train_appnp(16, SEED);
        for workers in [1, 2] {
            out.push(fingerprint(
                format!("citeseer-{tag}/appnp/{workers}"),
                &ds.graph,
                &appnp,
                workers,
                &pool,
            ));
        }
    }
    let g = sbm();
    let pool: Vec<NodeId> = (0..g.num_nodes()).collect();
    let sage = GraphSage::new(&[4, 16, 3], SEED);
    out.push(fingerprint("sbm/sage/1".into(), &g, &sage, 1, &pool));
    let gat = Gat::new(&[4, 16, 3], SEED);
    out.push(fingerprint("sbm/gat/1".into(), &g, &gat, 1, &pool));
    out
}

/// The digests as the JSON object `ANSWERS.json` holds: one
/// `"engine": "hex digest"` member per line, in run order.
pub fn answers_json(engines: &[EngineFingerprint]) -> String {
    let members: Vec<String> = engines
        .iter()
        .map(|e| format!("  \"{}\": \"{:016x}\"", e.name, e.digest))
        .collect();
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

/// A 90-node, three-block SBM with one-hot block features plus a seeded
/// noise column, labeled by block.
fn sbm() -> Graph {
    let (mut g, blocks) = stochastic_block_model(&[30, 30, 30], 0.15, 0.02, SEED);
    ensure_connected(&mut g, SEED);
    let mut rng = Rng::seed_from_u64(SEED);
    for (v, &b) in blocks.iter().enumerate() {
        let mut feats = vec![0.0; 4];
        feats[b] = 1.0;
        feats[3] = rng.gen_range(0usize..10) as f64 / 10.0;
        g.set_features(v, feats);
        g.set_label(v, b);
    }
    g
}

/// Node sets of one to four nodes drawn from `pool`, canonical
/// (sorted, deduplicated).
fn queries(pool: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut rng = Rng::seed_from_u64(SEED);
    (0..QUERIES)
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

/// Three disturbances near the first queries: each removes an edge at a
/// queried node and inserts a pair from that node to a far one.
fn disturbances(graph: &Graph, queries: &[Vec<NodeId>]) -> Vec<Disturbance> {
    let n = graph.num_nodes();
    queries
        .iter()
        .filter_map(|q| {
            let v = q[0];
            let u = graph.neighbors(v).next()?;
            let far = (v + n / 2) % n;
            let mut pairs: Vec<Edge> = vec![(v, u)];
            if far != v && !graph.has_edge(v, far) {
                pairs.push((v, far));
            }
            Some(Disturbance::from_pairs(pairs))
        })
        .take(3)
        .collect()
}

fn fingerprint<M: VerifiableModel>(
    name: String,
    graph: &Graph,
    model: &M,
    workers: usize,
    pool: &[NodeId],
) -> EngineFingerprint {
    let engine =
        WitnessEngine::new(Arc::new(graph.clone()), model, serve_config(K)).with_workers(workers);
    let queries = queries(pool);
    let mut lines = Vec::new();
    for q in &queries {
        lines.push(format!("query {q:?} {}", answer(&engine.generate(q))));
    }
    for d in disturbances(graph, &queries) {
        lines.push(format!(
            "disturb {:?} {}",
            d.pairs().to_vec(),
            report(&engine.disturb(std::slice::from_ref(&d)))
        ));
    }
    for q in &queries {
        let result = engine.generate(q);
        lines.push(format!("requery {q:?} {}", answer(&result)));
        lines.push(format!(
            "verify {q:?} {}",
            outcome(&engine.verify(&result.witness))
        ));
    }
    let mut h = Fnv::new();
    for line in &lines {
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    EngineFingerprint {
        name,
        lines,
        digest: h.finish(),
    }
}

/// A result's discrete fields: witness edges, test nodes and labels, level,
/// flags and counters (the wall-clock time is left out).
fn answer(r: &GenerationResult) -> String {
    format!(
        "edges={:?} nodes={:?} labels={:?} level={:?} nontrivial={} stale={} calls={} \
         disturbances={} rounds={}",
        r.witness.edges().to_vec(),
        r.witness.test_nodes,
        r.witness.labels,
        r.level,
        r.nontrivial,
        r.stale,
        r.stats.inference_calls,
        r.stats.disturbances_verified,
        r.stats.expand_rounds
    )
}

/// A disturbance report's counters and entries (its epoch and time are
/// left out: epochs are process-wide).
fn report(r: &DisturbReport) -> String {
    let entries: Vec<String> = r
        .entries
        .iter()
        .map(|e| format!("[{:?} {:?} {}]", e.test_nodes, e.outcome, answer(&e.result)))
        .collect();
    format!(
        "flips={} footprint={} untouched={} reverified={} repaired={} regenerated={} \
         degraded={} calls={} disturbances={} rounds={} entries={}",
        r.flips_applied,
        r.footprint_size,
        r.untouched,
        r.reverified,
        r.repaired,
        r.regenerated,
        r.degraded,
        r.stats.inference_calls,
        r.stats.disturbances_verified,
        r.stats.expand_rounds,
        entries.join(" ")
    )
}

/// A verification outcome: level, counterexample and both counters.
fn outcome(o: &VerifyOutcome) -> String {
    format!(
        "level={:?} counterexample={:?} calls={} checked={}",
        o.level,
        o.counterexample.as_ref().map(|d| d.to_vec()),
        o.inference_calls,
        o.disturbances_checked
    )
}
