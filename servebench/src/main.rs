//! `servebench` — the serving benchmark for robogexp.
//!
//! Spawns a fresh `rcw_serve` (GCN and APPNP routes over CiteSeer Small),
//! drives it over TCP, checks its answers against an in-process reference
//! engine, and prints one JSON result line:
//!
//! ```text
//! servebench --server PATH --workload warm_hits|cold_sessions|disturb_under_reads
//!            --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! Every run plays three phases: warm reads over a pre-warmed working set,
//! then disturbances beside warm reads, on one server; cold sessions on a
//! second, fresh server. The reference engines replay each server's
//! requests in the order it saw them, so every comparison is exact. Every run
//! reports every end-to-end metric: the named workload's phase runs for
//! `--seconds`, the warm phase otherwise for 20% of it, the cold phase for
//! 60%, and the disturb phase always for all of it.
//!
//! `--trace 1` additionally records spans around every request and around
//! in-process calls into each layer, writes them to
//! `.bench_out/trace-WORKLOAD-SEED.jsonl`, and reports the per-layer metrics.
//! `--quick` runs every workload at tiny sizes and checks that every metric
//! named in `BENCHMARK.json` is produced with its unit.

mod check;
mod inputs;
mod layers;
mod load;
mod metrics;
mod reference;
mod serve;
mod stats;
mod trace;

use check::{answer_matches, cold_guard, deltas, warm_guard};
use inputs::Sizes;
use load::{Observed, Query};
use rcw_core::GenerationResult;
use rcw_graph::Disturbance;
use rcw_linalg::Rng;
use rcw_server::wire::{self, Json};
use reference::Models;
use serve::{read_stats, Served};
use stats::{mean, median, quantile, scaled, sliced_quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmark definition `--quick` checks the metric names against.
const SPEC: &str = "BENCHMARK.json";
/// The workloads, in the order `--quick` runs them.
const WORKLOADS: [&str; 3] = ["warm_hits", "cold_sessions", "disturb_under_reads"];
/// Servers spawned per run; `setup_s` is the median spawn-to-announce time.
const SETUP_SPAWNS: usize = 7;
/// Disturbance events per second in the disturb phase.
const DISTURB_RATE: f64 = 5.0;
/// Slice length for the steady quantiles of warm reads (see
/// [`stats::sliced_quantile`]) and of cold sessions.
const FAST_SLICE_NS: u64 = 100_000_000;
const COLD_SLICE_NS: u64 = 1_000_000_000;
/// Warm connections in the warm phase.
const WARM_CONNS: usize = 2;
/// Length of each phase that is not the named workload's, as a share of
/// `--seconds`.
/// The disturb phase always runs the full `--seconds`: it sends only a few
/// events a second, and fewer events left its median unsteady.
const WARM_SIDE_SHARE: f64 = 0.2;
const COLD_SIDE_SHARE: f64 = 0.6;
const DISTURB_SIDE_SHARE: f64 = 1.0;

struct Args {
    server: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server: String::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--server" => args.server = value()?,
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "invalid --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "invalid --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--quick" => args.quick = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.server.is_empty() {
        return Err("--server PATH is required".to_string());
    }
    if !args.quick && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(args)
}

/// Phase lengths and input sizes for one run.
struct Plan {
    warm: Duration,
    cold: Duration,
    sizes: Sizes,
    /// Every `keep_every`-th warm answer per connection is checked.
    keep_every: usize,
    /// Working-set keys probed after the windows.
    probes: usize,
    /// Cold answers per route replayed in-process.
    cold_checks: usize,
}

impl Plan {
    /// The named workload's phase runs for `seconds`; the other two run for
    /// a fixed share of it, sized so their quantiles stay steady (the
    /// disturb phase needs the most time: it sends only a few events a
    /// second).
    fn new(workload: &str, seconds: f64, quick: bool) -> Plan {
        let phase = |name: &str, side_share: f64| {
            let share = if name == workload { 1.0 } else { side_share };
            Duration::from_secs_f64(seconds * share)
        };
        let disturb = phase("disturb_under_reads", DISTURB_SIDE_SHARE);
        let events = (disturb.as_secs_f64() * DISTURB_RATE).floor().max(2.0) as usize;
        Plan {
            warm: phase("warm_hits", WARM_SIDE_SHARE),
            cold: phase("cold_sessions", COLD_SIDE_SHARE),
            sizes: Sizes {
                working: if quick { 12 } else { 100 },
                cold: if quick { 60 } else { 520 },
                events,
            },
            keep_every: if quick { 16 } else { 2048 },
            probes: if quick { 8 } else { 32 },
            cold_checks: if quick { 3 } else { 12 },
        }
    }
}

/// One run's findings.
struct Outcome {
    attempted: usize,
    failed: usize,
    guards: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

fn p(samples_ns: &[u64], q: f64, divisor: f64) -> f64 {
    quantile(&mut scaled(samples_ns, divisor), q)
}

/// Requests per second: the median over the phase's complete slices.
fn sliced_rate(starts_ns: &[u64], slice_ns: u64, elapsed: Duration) -> f64 {
    let full = (elapsed.as_nanos() as u64 / slice_ns) as usize;
    let mut counts = vec![0usize; full];
    for &s in starts_ns {
        if let Some(c) = counts.get_mut((s / slice_ns) as usize) {
            *c += 1;
        }
    }
    if counts.is_empty() {
        return starts_ns.len() as f64 / elapsed.as_secs_f64();
    }
    let mut rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * 1e9 / slice_ns as f64)
        .collect();
    median(&mut rates)
}

/// Median of the values recorded for `route` (`0` when there are none).
fn route_median(samples: &[(usize, f64)], route: usize) -> f64 {
    let mut xs: Vec<f64> = samples
        .iter()
        .filter(|(r, _)| *r == route)
        .map(|(_, x)| *x)
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        median(&mut xs)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = if args.quick {
        self_check(&args)
    } else {
        run(&args, &args.workload).map(|outcome| {
            print_table(&outcome, args.trace);
            println!("{}", result_line(&outcome, args.trace));
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let wanted: Vec<(&str, &str)> = if trace {
        metrics::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        metrics::END_TO_END.to_vec()
    };
    let metrics: Vec<(String, Json)> = wanted
        .iter()
        .filter_map(|&(name, unit)| {
            let value = outcome.metrics.iter().find(|(n, _)| *n == name)?.1;
            Some((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ))
        })
        .collect();
    let correct = outcome.failed == 0
        && outcome.guards.is_empty()
        && metrics.len() == wanted.len()
        && outcome.metrics.iter().all(|(_, v)| v.is_finite());
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(outcome.attempted as u64)),
        ("failed", Json::num(outcome.failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

/// Human-readable results on stderr; per-layer metrics beside the
/// end-to-end metric each should move.
fn print_table(outcome: &Outcome, trace: bool) {
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    eprintln!(
        "attempted {} failed {} failed_share {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for guard in &outcome.guards {
        eprintln!("GUARD FAILED: {guard}");
    }
    for (name, unit) in metrics::END_TO_END {
        eprintln!("  {name:<32} {:>14.4} {unit}", value(name));
    }
    if trace {
        for (name, unit, moves) in metrics::PER_LAYER {
            eprintln!(
                "  {name:<32} {:>14.4} {unit:<6} moves {moves} ({:.4})",
                value(name),
                value(moves)
            );
        }
    }
}

/// `--quick`: every workload at tiny sizes, untraced then traced; fails
/// unless each run passes its guards and emits every metric the spec names,
/// with the spec's unit.
fn self_check(args: &Args) -> Result<(), String> {
    let spec_text = std::fs::read_to_string(SPEC).map_err(|e| format!("{SPEC}: {e}"))?;
    let spec = Json::parse(&spec_text).map_err(|e| format!("{SPEC}: {e}"))?;
    for workload in WORKLOADS {
        let outcome = run(args, workload)?;
        for trace in [false, true] {
            let line = result_line(&outcome, trace);
            let result = Json::parse(&line).map_err(|e| e.to_string())?;
            let section = if trace { "per_layer" } else { "end_to_end" };
            let produced = result.field("metrics").map_err(|e| e.to_string())?;
            for entry in spec
                .field(section)
                .and_then(Json::as_arr)
                .map_err(|e| e.to_string())?
            {
                let name = entry
                    .field("name")
                    .and_then(Json::as_str)
                    .map_err(|e| e.to_string())?;
                let unit = entry
                    .field("unit")
                    .and_then(Json::as_str)
                    .map_err(|e| e.to_string())?;
                let got = produced
                    .field(name)
                    .and_then(|m| m.field("unit"))
                    .and_then(Json::as_str)
                    .map_err(|_| format!("{workload}: {section} metric {name} missing"))?;
                if got != unit {
                    return Err(format!("{workload}: {name} unit {got}, spec says {unit}"));
                }
            }
            if result.field("correct").and_then(Json::as_bool) != Ok(true) {
                print_table(&outcome, true);
                return Err(format!("{workload}: run not correct: {line}"));
            }
            println!("{workload} trace={}: {line}", u8::from(trace));
        }
    }
    println!("self-check passed");
    Ok(())
}

/// Seeded shuffle of `0..n`.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

fn run(args: &Args, workload: &str) -> Result<Outcome, String> {
    let seconds = if args.quick {
        args.seconds.min(1.5)
    } else {
        args.seconds
    };
    let plan = Plan::new(workload, seconds, args.quick);
    let traced = args.trace || args.quick;
    println!(
        "provenance {}",
        serve::provenance(workload, args.seed).encode()
    );

    let t0 = Instant::now();
    let log = |what: &str| eprintln!("servebench: {what} at {:.2}s", t0.elapsed().as_secs_f64());
    let models = Models::train();
    log("reference models trained");
    let pool = &models.dataset.test_pool;
    let inputs = inputs::generate(
        pool,
        [&models.dataset.graph, &models.dataset.graph],
        args.seed,
        plan.sizes,
    );
    inputs::check_cache_caps(&inputs, pool.len())?;

    // Set-up: spawn-to-announce, several times. The last two servers stay
    // up: one for the warm and disturb phases, a fresh one for the cold
    // phase, so cold sessions run on the undisturbed graph whatever the
    // events were.
    let mut setup_s = Vec::new();
    let mut kept = Vec::new();
    for i in 0..SETUP_SPAWNS {
        let (served, took) = Served::spawn(&args.server)?;
        setup_s.push(took.as_secs_f64());
        if i + 2 < SETUP_SPAWNS {
            served.shutdown()?;
        } else {
            kept.push(served);
        }
    }
    let (server, cold_server) = (kept.pop().expect("spawned"), kept.pop().expect("spawned"));
    let addr = server.addr.clone();

    let working: [Vec<Query>; 2] =
        std::array::from_fn(|r| inputs.working[r].iter().map(|s| Query::new(r, s)).collect());
    let cold: [Vec<Query>; 2] =
        std::array::from_fn(|r| inputs.cold[r].iter().map(|s| Query::new(r, s)).collect());
    let reads: Vec<Query> = working.iter().flatten().cloned().collect();
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x0de2_0000_7a11);
    let order = shuffled(reads.len(), &mut rng);

    log("servers spawned");
    let warmed = load::warm_up(&addr, [&working[0], &working[1]])?;
    log("working set warmed");
    let origin = Instant::now();
    let trace_at = traced.then_some(origin);
    let s0 = read_stats(&addr)?;

    // Phase 1: warm reads. A traced run measures the first half untraced,
    // the second half traced, and reports the difference as overhead.
    let (warm, warm_elapsed, overhead) = if traced {
        let (first, _) = load::warm_reads(
            &addr,
            &reads,
            &order,
            WARM_CONNS,
            plan.warm / 2,
            plan.keep_every,
            None,
        )?;
        let (second, elapsed) = load::warm_reads(
            &addr,
            &reads,
            &order,
            WARM_CONNS,
            plan.warm / 2,
            plan.keep_every,
            trace_at,
        )?;
        let overhead = p(&second.latencies_ns, 0.5, 1e3) / p(&first.latencies_ns, 0.5, 1e3) - 1.0;
        let offset = plan.warm.as_nanos() as u64 / 2;
        let mut both = first;
        both.starts_ns
            .extend(second.starts_ns.iter().map(|s| s + offset));
        both.latencies_ns.extend(second.latencies_ns);
        both.routes.extend(second.routes);
        both.sent += second.sent;
        both.failed += second.failed;
        both.kept.extend(second.kept);
        both.spans = second.spans;
        (both, elapsed * 2, overhead)
    } else {
        let (warm, elapsed) = load::warm_reads(
            &addr,
            &reads,
            &order,
            WARM_CONNS,
            plan.warm,
            plan.keep_every,
            None,
        )?;
        (warm, elapsed, 0.0)
    };
    let s1 = read_stats(&addr)?;

    // Phase 2: paced disturbances beside one reader.
    let events = &inputs.events[..plan.sizes.events];
    let disturbed = load::disturb_beside_reads(
        &addr,
        &reads,
        &order,
        events,
        DISTURB_RATE,
        usize::MAX,
        trace_at,
    )?;
    let s2 = read_stats(&addr)?;

    // Phase 3: cold sessions over one connection, on the fresh server.
    let c0 = read_stats(&cold_server.addr)?;
    let colds = load::cold_requests(&cold_server.addr, [&cold[0], &cold[1]], plan.cold, trace_at)?;
    let c1 = read_stats(&cold_server.addr)?;

    // Post-window probes of the disturbed working set.
    let probe_idx: Vec<usize> = order.iter().copied().take(plan.probes).collect();
    let probe_queries: Vec<&Query> = probe_idx.iter().map(|&i| &reads[i]).collect();
    let probe_texts = load::fetch_all(&addr, &probe_queries)?;
    let rss_mb = server.peak_rss_mb()?.max(cold_server.peak_rss_mb()?);
    server.shutdown()?;
    cold_server.shutdown()?;
    log("windows done");

    // Guards over the /stats deltas.
    let mut guards = Vec::new();
    let per_route = |o: &Observed| -> [usize; 2] {
        std::array::from_fn(|r| o.routes.iter().filter(|&&x| x == r).count())
    };
    let cold_sent = per_route(&colds);
    if let Err(e) = warm_guard("warm", per_route(&warm), &deltas(&s0, &s1), true) {
        guards.push(e);
    }
    // Repairs consult the neighbourhood cache, so only the warm window
    // must leave it untouched.
    if let Err(e) = warm_guard(
        "disturb",
        per_route(&disturbed.reads),
        &deltas(&s1, &s2),
        false,
    ) {
        guards.push(e);
    }
    if let Err(e) = cold_guard(cold_sent, &deltas(&c0, &c1)) {
        guards.push(e);
    }

    // Reference replay, in the order each engine saw its requests.
    let engines = models.engines();
    let mut mismatched = 0usize;
    for (k, (i, body)) in warmed.kept.iter().enumerate() {
        // warm_up keeps route 0's answers first, then route 1's.
        let route = usize::from(k >= working[0].len());
        mismatched += usize::from(!answer_matches(
            body,
            &engines[route].generate(&working[route][*i].nodes),
        ));
    }
    for (i, body) in &warm.kept {
        let q = &reads[*i];
        mismatched += usize::from(!answer_matches(body, &engines[q.route].generate(&q.nodes)));
    }
    let mut disturb_ms = Vec::with_capacity(events.len());
    let (mut repair_sum, mut repair_events) = ([0usize; 4], 0usize);
    for event in events {
        let d = Disturbance::from_pairs(event.flips.iter().copied());
        let start = Instant::now();
        let report = engines[event.route].disturb(&[d]);
        disturb_ms.push((event.route, start.elapsed().as_secs_f64() * 1e3));
        repair_sum[0] += report.untouched;
        repair_sum[1] += report.reverified;
        repair_sum[2] += report.repaired;
        repair_sum[3] += report.regenerated;
        repair_events += 1;
    }
    for (q, body) in probe_queries.iter().zip(&probe_texts) {
        mismatched += usize::from(!answer_matches(body, &engines[q.route].generate(&q.nodes)));
    }
    // Cold answers against fresh engines: the cold server saw nothing else.
    let cold_engines = models.engines();
    let mut session_ms = [Vec::new(), Vec::new()];
    let mut served_cold: [Vec<GenerationResult>; 2] = [Vec::new(), Vec::new()];
    let mut cold_stats = Vec::new();
    for (k, body) in &colds.kept {
        if let Ok(r) = wire::generation_from_body(body.trim_end()) {
            cold_stats.push(r.stats.clone());
            let route = k % 2;
            if served_cold[route].len() < plan.cold_checks {
                let start = Instant::now();
                let reference = cold_engines[route].generate(&cold[route][k / 2].nodes);
                session_ms[route].push(start.elapsed().as_secs_f64() * 1e3);
                mismatched += usize::from(!answer_matches(body, &reference));
                served_cold[route].push(r);
            }
        } else {
            mismatched += 1;
        }
    }
    log("reference replayed");
    let compared = warmed.kept.len() + warm.kept.len() + probe_texts.len();
    let attempted = warmed.sent
        + warm.sent
        + disturbed.reads.sent
        + events.len()
        + colds.sent
        + probe_texts.len();
    let failed = warmed.failed
        + warm.failed
        + disturbed.reads.failed
        + disturbed.failed
        + colds.failed
        + mismatched;
    if compared == 0 {
        guards.push("no warm answer was compared".to_string());
    }

    // End-to-end metrics.
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let warm_samples = warm.samples(None);
    let warm_q = |q: f64| sliced_quantile(&warm_samples, FAST_SLICE_NS, 1000, q, 1e3);
    let warm_p50 = warm_q(0.5);
    metrics.push(("setup_s", median(&mut setup_s)));
    metrics.push(("server_rss_mb", rss_mb));
    metrics.push((
        "warm_rps",
        sliced_rate(&warm.starts_ns, FAST_SLICE_NS, warm_elapsed),
    ));
    metrics.push(("warm_p50_us", warm_p50));
    metrics.push(("load.warm_p99_us", warm_q(0.99)));
    let cold_samples = [colds.samples(Some(0)), colds.samples(Some(1))];
    let cold_q = |r: usize, q: f64| sliced_quantile(&cold_samples[r], COLD_SLICE_NS, 10, q, 1e6);
    metrics.push(("cold_gcn_p50_ms", cold_q(0, 0.5)));
    metrics.push(("load.cold_gcn_p90_ms", cold_q(0, 0.9)));
    metrics.push(("cold_appnp_p50_ms", cold_q(1, 0.5)));
    metrics.push(("load.cold_appnp_p90_ms", cold_q(1, 0.9)));
    // Per route: GCN and APPNP repairs differ by ~4x, and a pooled median
    // would land in the gap between the two modes.
    let disturb_lat: [Vec<u64>; 2] = std::array::from_fn(|r| {
        disturbed
            .disturb_ns
            .iter()
            .zip(events)
            .filter(|(_, e)| e.route == r)
            .map(|(&l, _)| l)
            .collect()
    });
    metrics.push(("load.disturb_gcn_p50_ms", p(&disturb_lat[0], 0.5, 1e6)));
    metrics.push(("load.disturb_appnp_p50_ms", p(&disturb_lat[1], 0.5, 1e6)));
    let read_samples = disturbed.reads.samples(None);
    metrics.push((
        "read_p50_us",
        sliced_quantile(&read_samples, FAST_SLICE_NS, 1000, 0.5, 1e3),
    ));
    metrics.push((
        "load.read_p99_us",
        sliced_quantile(&read_samples, FAST_SLICE_NS, 1000, 0.99, 1e3),
    ));

    if traced {
        let mut tracer = trace::Tracer::new(origin, 6);
        let warm_sample: [Vec<(String, Vec<usize>)>; 2] = std::array::from_fn(|r| {
            working[r]
                .iter()
                .take(plan.probes)
                .map(|q| (q.body.clone(), q.nodes.clone()))
                .collect()
        });
        let probed = layers::probe(
            &layers::ProbeInputs {
                models: &models,
                engines: &engines,
                cold_engines: &cold_engines,
                warm: warm_sample,
                cold: served_cold,
                events,
            },
            &mut tracer,
        );
        let get = |name: &str| {
            probed
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let (main, cold_delta) = (deltas(&s0, &s2), deltas(&c0, &c1));
        let sum = |d: &[check::Delta; 2], f: fn(&check::Delta) -> usize| f(&d[0]) + f(&d[1]);
        let items = (s1.batch_items - s0.batch_items) as f64;
        let claims = (s1.batch_claims - s0.batch_claims) as f64;
        let session_p50 = |xs: &mut Vec<f64>| if xs.is_empty() { 0.0 } else { median(xs) };
        let (gcn_ms, appnp_ms) = (
            session_p50(&mut session_ms[0]),
            session_p50(&mut session_ms[1]),
        );
        let cold_p50 = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let per_event = |x: usize| x as f64 / repair_events.max(1) as f64;
        let mut layer: Vec<(&'static str, f64)> = vec![
            (
                "server.self_us",
                warm_p50
                    - (get("wire.decode_ns")
                        + get("wire.encode_ns")
                        + get("engine.warm_lookup_ns"))
                        / 1e3,
            ),
            (
                "server.admission_wait_us",
                (s1.admission_wait_us - s0.admission_wait_us) as f64 / items.max(1.0),
            ),
            ("server.batch_occupancy", items / claims.max(1.0)),
            (
                "server.cold_overhead_ms",
                (cold_p50("cold_gcn_p50_ms") - gcn_ms + cold_p50("cold_appnp_p50_ms") - appnp_ms)
                    / 2.0,
            ),
            (
                "server.disturb_overhead_ms",
                (0..2)
                    .map(|r| p(&disturb_lat[r], 0.5, 1e6) - route_median(&disturb_ms, r))
                    .sum::<f64>()
                    / 2.0,
            ),
            ("engine.warm_hits", sum(&main, |d| d.warm_hits) as f64),
            (
                "engine.sessions_run",
                sum(&cold_delta, |d| d.sessions_run) as f64,
            ),
            (
                "engine.disturb_ms",
                (route_median(&disturb_ms, 0) + route_median(&disturb_ms, 1)) / 2.0,
            ),
            ("engine.repairs_skipped", per_event(repair_sum[0])),
            ("engine.repairs_reverified", per_event(repair_sum[1])),
            ("engine.repairs_searched", per_event(repair_sum[2])),
            ("engine.repairs_regenerated", per_event(repair_sum[3])),
            (
                "engine.stored",
                (0..2)
                    .map(|r| s2.engines[r].stored + c1.engines[r].stored)
                    .sum::<usize>() as f64,
            ),
            ("session.gcn_ms", gcn_ms),
            ("session.appnp_ms", appnp_ms),
            (
                "session.inference_calls",
                mean(
                    &cold_stats
                        .iter()
                        .map(|s| s.inference_calls as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "session.disturbances_verified",
                mean(
                    &cold_stats
                        .iter()
                        .map(|s| s.disturbances_verified as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "session.expand_rounds",
                mean(
                    &cold_stats
                        .iter()
                        .map(|s| s.expand_rounds as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "load.disturb_late_ms",
                mean(&scaled(&disturbed.late_ns, 1e6)),
            ),
            ("trace.overhead_share", overhead),
        ];
        layer.extend(probed);
        metrics.extend(layer);

        log("layers probed");
        let mut spans = tracer.spans;
        spans.extend(warm.spans.iter().cloned());
        spans.extend(disturbed.reads.spans.iter().cloned());
        spans.extend(disturbed.spans.iter().cloned());
        spans.extend(colds.spans.iter().cloned());
        let path =
            std::path::PathBuf::from(format!(".bench_out/trace-{workload}-{}.jsonl", args.seed));
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {} spans to {}", spans.len(), path.display());
    }
    Ok(Outcome {
        attempted,
        failed,
        guards,
        metrics,
    })
}
