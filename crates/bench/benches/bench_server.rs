//! Serving-layer throughput and latency: an in-process `RcwServer` fronting
//! a warm `WitnessEngine`, driven over real TCP by the blocking client.
//!
//! Reported cases (medians land in `BENCH_server.json`):
//! * `latency/p50|p99/warm_generate` — per-request wall-clock of a single
//!   kept-alive client issuing warm (store-hit) `/generate` queries;
//! * `saturation/ns_per_request` — mean service time per request when
//!   2× the pool size of concurrent clients hammer the server (the inverse
//!   of saturation throughput; the printed summary shows requests/s);
//! * `mixed/latency/p50|p99/warm_generate` and
//!   `mixed/saturation/ns_per_request` — the same two measurements while
//!   background clients stream never-seen (cold) node sets that run full
//!   expand-verify sessions, so the numbers show whether short warm hits
//!   (answered on the event loop) stay clear of long sessions. Only
//!   warm requests are timed/counted; the cold stream is load, not signal,
//!   and the sessions it ran are read off the engine's `sessions_run`.
//!
//! Each latency case is measured in [`LATENCY_ROUNDS`] rounds and reports
//! its median round, so one scheduler stall on a small shared box moves a
//! round, not the recorded figure.
//!
//! `RCW_BENCH_QUICK=1` shrinks the sample counts for the nightly mixed-load
//! smoke leg (bounded wall-clock, same code paths).

use rcw_bench::timing::{format_duration, BenchGroup};
use rcw_core::{RcwConfig, WitnessEngine};
use rcw_datasets::{citeseer, Scale};
use rcw_linalg::rng::{Rng, SliceRandom};
use rcw_server::client::Client;
use rcw_server::{RcwServer, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HTTP_WORKERS: usize = 4;
const SATURATION_CLIENTS: usize = 2 * HTTP_WORKERS;
/// Background cold-traffic clients for the `mixed/*` cases.
const COLD_CLIENTS: usize = 2;
/// Rounds per latency distribution; each case records the median round.
const LATENCY_ROUNDS: usize = 5;

fn bench_cfg() -> RcwConfig {
    RcwConfig {
        k: 2,
        local_budget: 2,
        candidate_hops: 2,
        sampled_disturbances: 6,
        exhaustive_limit: 8,
        max_expand_rounds: 3,
        ..RcwConfig::default()
    }
}

/// Warm-latency distributions over a kept-alive connection: each of
/// [`LATENCY_ROUNDS`] rounds issues `samples` store-hit generates; returns
/// the median round's `(p50, p99)`.
fn warm_latency(
    client: &mut Client,
    queries: &[Vec<usize>],
    samples: usize,
) -> (Duration, Duration) {
    let mut p50s = Vec::with_capacity(LATENCY_ROUNDS);
    let mut p99s = Vec::with_capacity(LATENCY_ROUNDS);
    let mut latencies: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..LATENCY_ROUNDS {
        latencies.clear();
        for i in 0..samples {
            let nodes = &queries[i % queries.len()];
            let start = Instant::now();
            client.generate(nodes).expect("warm generate");
            latencies.push(start.elapsed());
        }
        latencies.sort_unstable();
        p50s.push(latencies[latencies.len() / 2]);
        p99s.push(latencies[latencies.len() * 99 / 100]);
    }
    p50s.sort_unstable();
    p99s.sort_unstable();
    (p50s[LATENCY_ROUNDS / 2], p99s[LATENCY_ROUNDS / 2])
}

/// Saturation sweep: `SATURATION_CLIENTS` concurrent connections each issue
/// `per_client` warm requests; returns `(ns_per_request, requests_per_sec)`
/// over the wall-clock window. Only these warm requests are counted — any
/// concurrent cold traffic is extra load on the same pool. The drivers send
/// prebuilt bodies and only status-check the answers (`generate_text`):
/// response decoding is harness work, and on a shared core it would steal
/// the very cycles being measured.
fn warm_saturation(addr: &str, queries: &[Vec<usize>], per_client: usize) -> (u64, f64) {
    let bodies: Vec<String> = queries
        .iter()
        .map(|nodes| {
            let list: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
            format!("{{\"v\":1,\"nodes\":[{}]}}", list.join(","))
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|clients| {
        for c in 0..SATURATION_CLIENTS {
            let bodies = &bodies;
            clients.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..per_client {
                    let body = &bodies[(c + i) % bodies.len()];
                    let (status, text) = client.generate_text(body).expect("saturation generate");
                    assert_eq!(status, 200, "saturation generate failed: {text}");
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let total = SATURATION_CLIENTS * per_client;
    (
        elapsed.as_nanos() as u64 / total as u64,
        total as f64 / elapsed.as_secs_f64(),
    )
}

/// Never-seen cold queries: every canonical (sorted) pair of distinct
/// test-pool nodes outside the warm working set, then every such triple,
/// each group in a seeded order. Each one is a store miss the first time it
/// is queried; the triples only keep the stream cold once the pairs run out.
fn cold_sets(pool: &[usize], warm: &[Vec<usize>], seed: u64) -> Vec<Vec<usize>> {
    let mut nodes = pool.to_vec();
    nodes.sort_unstable();
    let (mut pairs, mut triples) = (Vec::new(), Vec::new());
    for (i, &a) in nodes.iter().enumerate() {
        for (j, &b) in nodes.iter().enumerate().skip(i + 1) {
            pairs.push(vec![a, b]);
            triples.extend(nodes[j + 1..].iter().map(|&c| vec![a, b, c]));
        }
    }
    pairs.retain(|pair| !warm.contains(pair));
    let mut rng = Rng::seed_from_u64(seed);
    pairs.shuffle(&mut rng);
    triples.shuffle(&mut rng);
    pairs.extend(triples);
    pairs
}

/// Cold-traffic loop: the clients share one cursor over `sets`, so every
/// request queries a node set no earlier request used and runs a full
/// expand-verify session. Stops at `stop` or when the sets run out.
fn cold_stream(addr: &str, sets: &[Vec<usize>], next: &AtomicUsize, stop: &AtomicBool) {
    let mut client = Client::connect(addr).expect("connect cold");
    while !stop.load(Ordering::Relaxed) {
        let Some(nodes) = sets.get(next.fetch_add(1, Ordering::Relaxed)) else {
            break;
        };
        client.generate(nodes).expect("cold generate");
    }
}

fn main() {
    // The nightly mixed-load smoke leg runs the same code paths on a bounded
    // budget; the committed baseline always comes from a full run.
    let quick = std::env::var("RCW_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let latency_samples: usize = if quick { 60 } else { 600 };
    let requests_per_client: usize = if quick { 40 } else { 400 };

    let mut group = BenchGroup::new("server: latency and saturation throughput", latency_samples);

    let ds = citeseer::build(Scale::Tiny, 7);
    let gcn = ds.train_gcn(24, 7);
    let graph = Arc::new(ds.graph.clone());
    let engine = WitnessEngine::new(Arc::clone(&graph), &gcn, bench_cfg());
    println!(
        "citeseer/tiny: |V|={}, |E|={}, {} http workers, {} saturation clients, {} cold clients{}",
        graph.num_nodes(),
        graph.num_edges(),
        HTTP_WORKERS,
        SATURATION_CLIENTS,
        COLD_CLIENTS,
        if quick { " (quick)" } else { "" },
    );

    // A small working set of distinct queries, warmed once so every timed
    // request is the steady serving state: a store hit behind the wire.
    let queries: Vec<Vec<usize>> = (0..8)
        .map(|i| ds.pick_test_nodes(2, 31 + i as u64))
        .collect();
    let cold = cold_sets(&ds.test_pool, &queries, 10_000);

    let server = RcwServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let config = ServerConfig::single(&engine)
        .with_workers(HTTP_WORKERS)
        .with_queue_bound(1024);

    let (warm, mixed, cold_served) = std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));

        let mut warmup = Client::connect(&addr).expect("connect");
        for nodes in &queries {
            warmup.generate(nodes).expect("warm the store");
        }

        // Warm-only baseline: latency distribution, then saturation.
        let (p50, p99) = warm_latency(&mut warmup, &queries, latency_samples);
        let (sat_ns, rps) = warm_saturation(&addr, &queries, requests_per_client);

        // Mixed load: cold clients stream never-seen node sets (full sessions)
        // for the whole window while the same two warm measurements repeat.
        // No disturbances here — cold traffic must not stale the warm
        // working set, or the warm numbers would measure repair instead of
        // interleaving. Warm requests are all store hits, so the engine's
        // session delta counts exactly the cold sessions.
        let stop = AtomicBool::new(false);
        let next_cold = AtomicUsize::new(0);
        let sessions_before = engine.snapshot().stats.sessions_run;
        let (m_p50, m_p99, m_sat_ns, m_rps) = std::thread::scope(|mixed| {
            for _ in 0..COLD_CLIENTS {
                let (addr, cold, next, stop) = (&addr, &cold, &next_cold, &stop);
                mixed.spawn(move || cold_stream(addr, cold, next, stop));
            }

            let (m_p50, m_p99) = warm_latency(&mut warmup, &queries, latency_samples);
            let (m_sat_ns, m_rps) = warm_saturation(&addr, &queries, requests_per_client);

            stop.store(true, Ordering::Relaxed);
            (m_p50, m_p99, m_sat_ns, m_rps)
        });
        let cold_served = engine.snapshot().stats.sessions_run - sessions_before;

        warmup.shutdown().expect("shutdown");
        let report = server_thread.join().expect("server thread");
        assert_eq!(report.overloaded, 0, "bench must not shed under this queue");
        (
            (p50, p99, sat_ns, rps),
            (m_p50, m_p99, m_sat_ns, m_rps),
            cold_served,
        )
    });

    let (p50, p99, sat_ns, rps) = warm;
    let (m_p50, m_p99, m_sat_ns, m_rps) = mixed;
    let warm_total = SATURATION_CLIENTS * requests_per_client;

    group.record("latency/p50/warm_generate", latency_samples, p50, p50, p99);
    group.record("latency/p99/warm_generate", latency_samples, p99, p50, p99);
    let sat = Duration::from_nanos(sat_ns);
    group.record("saturation/ns_per_request", warm_total, sat, sat, sat);
    group.record(
        "mixed/latency/p50/warm_generate",
        latency_samples,
        m_p50,
        m_p50,
        m_p99,
    );
    group.record(
        "mixed/latency/p99/warm_generate",
        latency_samples,
        m_p99,
        m_p50,
        m_p99,
    );
    let m_sat = Duration::from_nanos(m_sat_ns);
    group.record(
        "mixed/saturation/ns_per_request",
        warm_total,
        m_sat,
        m_sat,
        m_sat,
    );

    println!(
        "warm saturation:  {rps:.0} req/s over {SATURATION_CLIENTS} clients ({} per request)",
        format_duration(sat),
    );
    println!(
        "mixed saturation: {m_rps:.0} req/s warm over {SATURATION_CLIENTS} clients \
         ({} per request) with {COLD_CLIENTS} cold clients serving {cold_served} sessions \
         (of {} never-seen node sets)",
        format_duration(m_sat),
        cold.len(),
    );
    println!();

    group.finish();
    // anchor at the workspace root so the record is stable across invokers
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    group.write_json(path);
}
