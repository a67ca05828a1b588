//! Tentpole acceptance for witness subscriptions: a client that registers a
//! node set receives a `witness_update` frame for every disturbance whose
//! repair touches its entry — bit-exact with a fresh `/generate` at the same
//! epoch — and the server's delivery ledger is exact:
//! `updates_delivered + updates_shed == updates_owed`.
//!
//! Covered here:
//! * single-engine servers over both GCN and APPNP classifiers;
//! * a fault storm (dropped connections, worker panics, forced repair
//!   failures) under which the ledger still balances exactly and every
//!   frame that does arrive is well-formed (`degraded` frames are
//!   stale-tagged rather than bit-exact — a fresh query may heal).
//!
//! The delivery protocol these tests lean on: the worker that serves a
//! `/disturb` sends every owed `Push` before its own `Respond` on the same
//! channel, so by the time the disturbing client has its `200`, every frame
//! owed for that disturbance is already queued (and flushed) to the
//! subscriber sockets. A timed read therefore only expires when no update
//! was owed.

use rcw_core::{RcwConfig, RepairOutcome, WitnessEngine};
use rcw_datasets::{citeseer, Scale};
use rcw_server::client::{Client, ClientError, SubscriptionStream};
use rcw_server::faults::FaultPlan;
use rcw_server::wire::WitnessUpdate;
use rcw_server::{RcwServer, ServerConfig};
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;

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

/// The server-wide owed counter, read off the versioned `/stats` payload.
fn owed_updates(client: &mut Client) -> u64 {
    let (status, body) = client.request("GET", "/stats", None).expect("stats");
    assert_eq!(status, 200);
    body.field("server")
        .expect("server counters")
        .field("updates_owed")
        .expect("owed counter on the wire")
        .as_u64()
        .expect("owed is a count")
}

/// Reads one pending update, or `None` when the timed read expires (no
/// update was owed to this stream).
fn try_update(sub: &mut SubscriptionStream) -> Option<WitnessUpdate> {
    match sub.next_update() {
        Ok(Some(update)) => Some(update),
        Ok(None) => panic!("stream closed mid-test"),
        Err(ClientError::Io(e))
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            None
        }
        Err(e) => panic!("stream error: {e}"),
    }
}

/// The fault-free protocol drill: two subscriptions, interleaved
/// disturbances from a control client, every received frame compared
/// bit-exactly against a fresh direct query. Returns how many updates the
/// two streams collected (for the caller's ledger check against the
/// [`rcw_server::ServeReport`]).
fn exercise_subscriptions(
    addr: &str,
    tests_a: &[usize],
    tests_b: &[usize],
    edges: &[(usize, usize)],
) -> u64 {
    let sub_a = Client::connect(addr)
        .expect("connect a")
        .subscribe(tests_a)
        .expect("subscribe a");
    let sub_b = Client::connect(addr)
        .expect("connect b")
        .subscribe(tests_b)
        .expect("subscribe b");
    assert_ne!(sub_a.id(), sub_b.id(), "subscription ids are distinct");

    let mut control = Client::connect(addr).expect("connect control");

    // The acknowledgement is bit-exact with a direct query of the same
    // nodes: subscribing warmed the store, so the direct query is the same
    // stored entry behind the wire.
    let direct_a = control.generate(tests_a).expect("direct a");
    assert_eq!(sub_a.ack().witness, direct_a.witness);
    assert_eq!(sub_a.ack().level, direct_a.level);
    assert_eq!(sub_a.epoch(), control.healthz().expect("healthz"));

    // The registered key is canonical: sorted, deduplicated.
    let mut key_a = tests_a.to_vec();
    key_a.sort_unstable();
    key_a.dedup();
    assert_eq!(sub_a.nodes(), &key_a[..]);
    let mut key_b = tests_b.to_vec();
    key_b.sort_unstable();
    key_b.dedup();

    let mut subs = [(sub_a, key_a), (sub_b, key_b)];
    for (sub, _) in subs.iter_mut() {
        sub.set_read_timeout(Some(Duration::from_millis(800)))
            .expect("read timeout");
    }

    let mut collected = 0u64;
    for (round, chunk) in edges.chunks(2).take(8).enumerate() {
        let owed_before = owed_updates(&mut control);
        let report = control.disturb(chunk).expect("disturb");
        assert_eq!(report.flips_applied, chunk.len());
        let owed_after = owed_updates(&mut control);

        let mut got = 0u64;
        for (sub, key) in subs.iter_mut() {
            let Some(update) = try_update(sub) else {
                continue;
            };
            got += 1;
            assert_eq!(update.subscription, sub.id(), "frame on the wrong stream");
            assert_eq!(
                update.disturbance,
                round as u64 + 1,
                "disturbance ids are sequential"
            );
            assert_eq!(
                update.epoch, report.epoch,
                "update stamped at the repair epoch"
            );

            // Bit-exactness: a fresh direct query at this epoch answers from
            // the same repaired entry the frame carried.
            let fresh = control.generate(key).expect("fresh generate");
            if update.outcome == RepairOutcome::Degraded {
                assert!(update.result.stale, "degraded updates are stale-tagged");
            } else {
                assert_eq!(update.result.witness, fresh.witness, "round {round}");
                assert_eq!(update.result.level, fresh.level, "round {round}");
                assert_eq!(update.result.nontrivial, fresh.nontrivial, "round {round}");
                assert_eq!(update.result.stale, fresh.stale, "round {round}");
            }
        }
        assert_eq!(
            got,
            owed_after - owed_before,
            "round {round}: every owed update arrived, nothing extra"
        );
        collected += got;
    }
    assert!(collected > 0, "the drill must exercise at least one update");

    // Graceful stop closes the streams: both report end-of-stream.
    control.shutdown().expect("shutdown");
    for (sub, _) in subs.iter_mut() {
        sub.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        match sub.next_update() {
            Ok(None) => {}
            other => panic!("expected end-of-stream after shutdown, got {other:?}"),
        }
    }
    collected
}

#[test]
fn subscription_updates_are_bit_exact_with_direct_queries_appnp() {
    let ds = citeseer::build(Scale::Tiny, 9);
    let appnp = ds.train_appnp(8, 9);
    let graph = Arc::new(ds.graph.clone());
    let engine = WitnessEngine::new(Arc::clone(&graph), &appnp, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let edges = graph.edge_vec();
    let report = std::thread::scope(|scope| {
        let engine_ref = &engine;
        let server_thread = scope.spawn(move || server.serve(engine_ref, 2).expect("serve"));
        let collected = exercise_subscriptions(
            &addr,
            &ds.pick_test_nodes(2, 5),
            &ds.pick_test_nodes(2, 11),
            &edges,
        );
        let report = server_thread.join().expect("server thread");
        assert_eq!(
            report.updates_delivered, collected,
            "every delivery was read"
        );
        report
    });
    assert_eq!(
        report.updates_delivered + report.updates_shed,
        report.updates_owed,
        "delivery ledger is exact"
    );
    assert_eq!(report.updates_shed, 0, "prompt consumers shed nothing");
}

#[test]
fn subscription_updates_are_bit_exact_with_direct_queries_gcn() {
    let ds = citeseer::build(Scale::Tiny, 21);
    let gcn = ds.train_gcn(8, 21);
    let graph = Arc::new(ds.graph.clone());
    let engine = WitnessEngine::new(Arc::clone(&graph), &gcn, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let edges = graph.edge_vec();
    let report = std::thread::scope(|scope| {
        let engine_ref = &engine;
        let server_thread = scope.spawn(move || server.serve(engine_ref, 2).expect("serve"));
        let collected = exercise_subscriptions(
            &addr,
            &ds.pick_test_nodes(2, 7),
            &ds.pick_test_nodes(2, 13),
            &edges,
        );
        let report = server_thread.join().expect("server thread");
        assert_eq!(
            report.updates_delivered, collected,
            "every delivery was read"
        );
        report
    });
    assert_eq!(
        report.updates_delivered + report.updates_shed,
        report.updates_owed,
        "delivery ledger is exact"
    );
}

/// The chaos leg: subscriptions under an injected fault storm. Connection
/// drops can kill streams (their in-flight updates shed), worker panics can
/// kill disturb requests after fan-out, and forced repair failures produce
/// `degraded` frames — the ledger must stay an equality through all of it,
/// and every frame that arrives must be well-formed.
const STORM_SPEC: &str = "worker_panic=1@1,conn_drop=1@2,\
                          write_drop=1@1,write_truncate=1@1,\
                          repair_fail=1@2,regen_fail=1@1";

fn storm_seeds() -> Vec<u64> {
    const DEFAULT: [u64; 2] = [7, 23];
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

#[test]
fn subscription_storm_keeps_the_delivery_ledger_exact() {
    let ds = citeseer::build(Scale::Tiny, 33);
    let appnp = ds.train_appnp(8, 33);
    let graph = Arc::new(ds.graph.clone());
    for seed in storm_seeds() {
        let plan = Arc::new(FaultPlan::parse(STORM_SPEC, seed).expect("storm spec parses"));
        let engine = WitnessEngine::new(Arc::clone(&graph), &appnp, quick_cfg())
            .with_fault_hook(plan.engine_hook());
        let server = RcwServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        let config = ServerConfig::single(&engine)
            .with_workers(2)
            .with_queue_bound(16)
            .with_io_timeout(Duration::from_secs(2))
            .with_faults(Arc::clone(&plan));

        let edges = graph.edge_vec();
        let report = std::thread::scope(|scope| {
            let config_ref = &config;
            let server_thread =
                scope.spawn(move || server.serve_config(config_ref).expect("serve"));

            // Subscriptions may die to injected connection faults — that is
            // the point. Collect the survivors.
            let mut streams: Vec<SubscriptionStream> = Vec::new();
            for (i, picks) in [3u64, 11, 19].iter().enumerate() {
                let nodes = ds.pick_test_nodes(2, seed.wrapping_add(*picks));
                match Client::connect(&addr).and_then(|c| c.subscribe(&nodes)) {
                    Ok(sub) => streams.push(sub),
                    Err(e) => eprintln!("seed {seed}: subscription {i} lost to storm: {e}"),
                }
            }

            // Disturbance storm over the wire (only wire disturbances fan
            // out to subscribers). Faulted requests are expected casualties;
            // the ledger is the claim, not per-call success.
            let mut control = Client::connect(&addr).expect("connect control");
            for chunk in edges.chunks(2).take(6) {
                if control.disturb(chunk).is_err() {
                    control = match Client::connect(&addr) {
                        Ok(c) => c,
                        Err(e) => panic!("seed {seed}: reconnect after fault: {e}"),
                    };
                }
            }

            // Drain every surviving stream: frames must be well-formed, and
            // degraded outcomes stale-tagged.
            for sub in streams.iter_mut() {
                sub.set_read_timeout(Some(Duration::from_millis(500)))
                    .expect("read timeout");
                loop {
                    match sub.next_update() {
                        Ok(Some(update)) => {
                            assert_eq!(update.subscription, sub.id());
                            assert!(update.disturbance >= 1);
                            assert!(update.epoch >= 1);
                            if update.outcome == RepairOutcome::Degraded {
                                assert!(
                                    update.result.stale,
                                    "seed {seed}: degraded frame must be stale-tagged"
                                );
                            }
                        }
                        Ok(None) => break,
                        Err(ClientError::Io(e))
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            break
                        }
                        Err(e) => panic!("seed {seed}: stream error: {e}"),
                    }
                }
            }

            drop(streams);
            let mut closer = Client::connect(&addr).expect("connect closer");
            closer.shutdown().expect("shutdown");
            server_thread.join().expect("server thread")
        });

        assert_eq!(
            report.updates_delivered + report.updates_shed,
            report.updates_owed,
            "seed {seed}: delivery ledger must balance exactly under the storm: {report:?}"
        );
    }
}
