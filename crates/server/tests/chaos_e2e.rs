//! Chaos end-to-end: a served engine survives an injected fault storm with
//! *exact* accounting.
//!
//! A seeded [`FaultPlan`] drives worker panics, dropped connections, stalled
//! reads, dropped and truncated writes, and forced repair/regeneration
//! failures while three retrying clients hammer the server and the test
//! thread streams disturbances into the engine. The claims:
//!
//! * every client request is eventually answered (retry-assisted — no call
//!   surfaces an error to its caller);
//! * the final [`rcw_server::ServeReport`] reconciles to the request ledger:
//!   answered = delivered + dropped-write fires + truncated-write fires, and
//!   `worker_restarts` equals the injected panic count exactly;
//! * the engine's conservation law holds after the storm (every query is a
//!   warm hit, a session, a degraded serve, or a budget abort);
//! * no invalid witness is served: once the plan's engine faults are
//!   exhausted, `/generate` heals back to a non-stale witness that
//!   re-verifies at its reported level;
//! * the faults fire on *both answer paths*: a single worker plus a start
//!   gate lines the clients' first generates up behind the injected claim
//!   stall, while their repeat generates are warm hits the event loop
//!   answers inline — `conn_drop`/`worker_panic`/write-side fires can land
//!   on either, and the ledger must balance across both exactly.
//!
//! Fires at limited probability-1 sites are exact (atomically claimed), which
//! is what makes the ledger an equality rather than an inequality. The storm
//! is deterministic per `(spec, seed)`; `RCW_FAULT_SEEDS=<n>` widens the
//! sweep for the nightly chaos leg.

use rcw_core::{RcwConfig, WitnessEngine};
use rcw_datasets::{citeseer, Dataset, Scale};
use rcw_gnn::Appnp;
use rcw_graph::Disturbance;
use rcw_server::client::{Client, RetryPolicy};
use rcw_server::faults::{self, FaultPlan};
use rcw_server::{RcwServer, ServerConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Every server-side site is probability 1 with a firing limit, so the
/// schedule is interleaving-independent: the first N hits fire, the ledger
/// balances exactly, and after exhaustion the drain phase runs fault-free.
/// The engine sites are limited too, so degraded entries can heal.
const STORM_SPEC: &str = "worker_panic=1@2,conn_drop=1@2,read_stall=1@1,\
                          write_drop=1@2,write_truncate=1@2,\
                          repair_fail=1@2,regen_fail=1@1";

fn storm_seeds() -> Vec<u64> {
    const DEFAULT: [u64; 2] = [3, 11];
    match std::env::var("RCW_FAULT_SEEDS") {
        Ok(n) => {
            let n: u64 = n
                .parse()
                .expect("RCW_FAULT_SEEDS must be a seed count, e.g. RCW_FAULT_SEEDS=64");
            (0..n).collect()
        }
        Err(_) => DEFAULT.to_vec(),
    }
}

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

fn storm_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        jitter: 0.5,
        budget: None,
    }
}

/// What one client thread did: calls that were answered, and anything that
/// failed (failures are collected, not panicked, so the server thread always
/// gets its shutdown and the scope never wedges on a join).
#[derive(Default)]
struct ClientLedger {
    answered: usize,
    failures: Vec<String>,
}

impl ClientLedger {
    fn record<T>(&mut self, what: &str, result: Result<T, impl std::fmt::Display>) {
        match result {
            Ok(_) => self.answered += 1,
            Err(e) => self.failures.push(format!("{what}: {e}")),
        }
    }
}

fn run_storm(seed: u64, ds: &Dataset, appnp: &Appnp) {
    let plan = Arc::new(FaultPlan::parse(STORM_SPEC, seed).expect("storm spec parses"));
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), appnp, quick_cfg())
        .with_fault_hook(plan.engine_hook());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    // A single worker: the injected read_stall wedges it on the very first
    // claim, so the other clients' gate-synchronized first generates queue
    // up behind it, while later warm hits are answered inline — the fault
    // sites fire on worker and inline answers alike.
    let config = ServerConfig::single(&engine)
        .with_workers(1)
        .with_queue_bound(8)
        .with_io_timeout(Duration::from_secs(2))
        .with_faults(Arc::clone(&plan));

    let edges = ds.graph.edge_vec();
    let batch_gate = Arc::new(Barrier::new(3));
    let (report, ledger) = std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));

        // Three retrying clients, each with its own query, so warm hits,
        // sessions, and repairs all happen under fire. The gate releases
        // their first generates simultaneously.
        let client_threads: Vec<_> = (0..3u64)
            .map(|tid| {
                let addr = addr.clone();
                let tests = ds.pick_test_nodes(2, seed.wrapping_add(tid));
                let batch_gate = Arc::clone(&batch_gate);
                scope.spawn(move || {
                    let mut ledger = ClientLedger::default();
                    let connected = Client::connect(&addr);
                    // Every thread reaches the gate whether or not its
                    // connect worked, so a failure can never wedge the
                    // others on the barrier.
                    batch_gate.wait();
                    let mut client = match connected {
                        Ok(client) => client,
                        Err(e) => {
                            ledger.failures.push(format!("client {tid} connect: {e}"));
                            return ledger;
                        }
                    };
                    client.set_retry(Some(storm_retry()));
                    for _ in 0..8 {
                        ledger.record("generate", client.generate(&tests));
                        ledger.record("healthz", client.healthz());
                        ledger.record("stats", client.stats());
                    }
                    ledger
                })
            })
            .collect();

        // Meanwhile, disturbances stream into the engine in-process: repairs
        // run (and are forced to fail, then degrade, then heal) while the
        // clients above keep querying.
        for chunk in edges.chunks(2).take(6) {
            engine.disturb(&[Disturbance::from_pairs(chunk.iter().copied())]);
            std::thread::sleep(Duration::from_millis(20));
        }

        let mut ledger = ClientLedger::default();
        for thread in client_threads {
            let done = thread.join().expect("client thread");
            ledger.answered += done.answered;
            ledger.failures.extend(done.failures);
        }

        // Drain phase: every limited server fault has been exhausted by the
        // storm (each fire consumed a request or connection), so plain
        // un-retried requests must now succeed — and the witness must have
        // healed back to a fresh, verifiable one.
        let mut drain = Client::connect(&addr).expect("drain connect");
        let tests = ds.pick_test_nodes(2, seed);
        let mut served = None;
        for _ in 0..5 {
            match drain.generate(&tests) {
                Ok(result) if !result.stale => {
                    ledger.answered += 1;
                    served = Some(result);
                    break;
                }
                // A stale serve is an answered request too; the next query
                // re-attempts the heal (the regen fault site is exhausted).
                Ok(_) => ledger.answered += 1,
                Err(e) => ledger.failures.push(format!("drain generate: {e}")),
            }
        }
        match served {
            Some(result) => {
                let recheck = engine.verify(&result.witness);
                if recheck.level != result.level {
                    ledger.failures.push(format!(
                        "served witness level {:?} does not re-verify (got {:?})",
                        result.level, recheck.level
                    ));
                }
            }
            None => ledger
                .failures
                .push("witness never healed after the storm".into()),
        }

        // The wire-visible restart counter must already agree with the
        // plan.
        match drain.request("GET", "/stats", None) {
            Ok((200, body)) => {
                ledger.answered += 1;
                let server_obj = body.field("server").expect("server object");
                let restarts = server_obj
                    .field("worker_restarts")
                    .and_then(|r| r.as_u64())
                    .expect("server.worker_restarts on the wire");
                assert_eq!(
                    restarts as usize,
                    plan.fired(faults::SITE_WORKER_PANIC),
                    "seed {seed}: /stats restart count"
                );
            }
            other => ledger.failures.push(format!("raw stats: {other:?}")),
        }

        match drain.shutdown() {
            Ok(()) => ledger.answered += 1,
            Err(e) => ledger.failures.push(format!("shutdown: {e}")),
        }
        (server_thread.join().expect("server thread"), ledger)
    });

    assert!(
        ledger.failures.is_empty(),
        "seed {seed}: requests failed through retries:\n{}",
        ledger.failures.join("\n")
    );

    // The storm fired every limited server site to its cap: enough requests
    // and connections passed each site for the probability-1 rules to
    // exhaust deterministically.
    assert_eq!(plan.fired(faults::SITE_WORKER_PANIC), 2, "seed {seed}");
    assert_eq!(plan.fired(faults::SITE_CONN_DROP), 2, "seed {seed}");
    assert_eq!(plan.fired(faults::SITE_WRITE_DROP), 2, "seed {seed}");
    assert_eq!(plan.fired(faults::SITE_WRITE_TRUNCATE), 2, "seed {seed}");

    // Exact request ledger: every answered request either reached its client
    // or was eaten by a write-side fault; panicked and dropped connections
    // never count as answered. Restarts equal injected panics exactly.
    assert_eq!(
        report.requests_total(),
        ledger.answered
            + plan.fired(faults::SITE_WRITE_DROP)
            + plan.fired(faults::SITE_WRITE_TRUNCATE),
        "seed {seed}: answered = delivered + write faults"
    );
    assert_eq!(
        report.worker_restarts,
        plan.fired(faults::SITE_WORKER_PANIC),
        "seed {seed}: every injected panic respawned its worker"
    );
    assert!(
        report.requests_inline >= 1,
        "seed {seed}: the storm must answer some requests inline"
    );

    // Engine conservation law: every query the engine processed is exactly
    // one of warm hit, full session, degraded serve, or budget abort.
    let stats = engine.stats();
    assert_eq!(
        stats.queries,
        stats.warm_hits + stats.sessions_run + stats.degraded_serves + stats.budget_aborts,
        "seed {seed}: engine query conservation"
    );
}

#[test]
fn fault_storm_is_survived_with_exact_accounting() {
    let ds = citeseer::build(Scale::Tiny, 23);
    let appnp = ds.train_appnp(8, 23);
    for seed in storm_seeds() {
        run_storm(seed, &ds, &appnp);
    }
}
