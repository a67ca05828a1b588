//! End-to-end acceptance test: a `WitnessEngine` served over TCP answers
//! `generate`, repairs witnesses after `disturb`, and reports consistent
//! `stats`, with concurrent client threads observing coherent results.

use rcw_core::{RcwConfig, WitnessEngine, WitnessLevel};
use rcw_datasets::{citeseer, Scale};
use rcw_server::client::Client;
use rcw_server::wire::{self, Json};
use rcw_server::RcwServer;
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

#[test]
fn concurrent_clients_get_coherent_answers_and_repairs() {
    let ds = citeseer::build(Scale::Tiny, 3);
    let appnp = ds.train_appnp(16, 3);
    let graph = Arc::new(ds.graph.clone());
    let engine = WitnessEngine::new(Arc::clone(&graph), &appnp, quick_cfg());
    let tests_a = ds.pick_test_nodes(2, 5);
    let tests_b = ds.pick_test_nodes(2, 11);

    let server = RcwServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    let report = std::thread::scope(|scope| {
        let engine_ref = &engine;
        let server_thread = scope.spawn(move || server.serve(engine_ref, 3).expect("serve"));

        // Baseline query, then two client threads hammering the same two
        // test sets concurrently: every answer must equal the baseline
        // (warm store hits behind the wire).
        let mut warmup = Client::connect(&addr).expect("connect");
        let baseline_a = warmup.generate(&tests_a).expect("generate a");
        let baseline_b = warmup.generate(&tests_b).expect("generate b");
        assert!(baseline_a.witness.subgraph.contains_node(tests_a[0]));

        std::thread::scope(|clients| {
            for _ in 0..2 {
                let addr = &addr;
                let tests_a = &tests_a;
                let tests_b = &tests_b;
                let baseline_a = &baseline_a;
                let baseline_b = &baseline_b;
                clients.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for _ in 0..3 {
                        let got_a = client.generate(tests_a).expect("generate a");
                        assert_eq!(got_a.witness, baseline_a.witness);
                        assert_eq!(got_a.level, baseline_a.level);
                        let got_b = client.generate(tests_b).expect("generate b");
                        assert_eq!(got_b.witness, baseline_b.witness);
                        assert_eq!(got_b.level, baseline_b.level);
                    }
                });
            }
        });

        // Batch endpoint agrees with the singles.
        let batch = warmup
            .generate_batch(&[tests_a.clone(), tests_b.clone()])
            .expect("batch");
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].witness, baseline_a.witness);
        assert_eq!(batch[1].witness, baseline_b.witness);

        // Disturb an edge no stored witness protects: the server repairs the
        // store, the epoch advances, and subsequent queries are warm again.
        let epoch_before = warmup.healthz().expect("healthz");
        let flip = graph
            .edges()
            .find(|&(u, v)| {
                !baseline_a.witness.subgraph.contains_edge(u, v)
                    && !baseline_b.witness.subgraph.contains_edge(u, v)
            })
            .expect("an unprotected edge exists");
        let disturb = warmup.disturb(&[flip]).expect("disturb");
        assert_eq!(disturb.flips_applied, 1);
        assert_eq!(
            disturb.untouched + disturb.reverified + disturb.repaired,
            2,
            "both stored witnesses were swept"
        );
        let epoch_after = warmup.healthz().expect("healthz");
        assert!(epoch_after > epoch_before, "epoch advances on disturbance");

        let repaired = warmup.generate(&tests_a).expect("generate after disturb");
        assert!(repaired.witness.subgraph.contains_node(tests_a[0]));
        assert!(repaired.level.rank() >= WitnessLevel::NotAWitness.rank());

        // Stats are coherent: queries add up, the store holds both sets, and
        // the per-worker counts account for every request.
        let (snapshot, per_worker) = warmup.stats().expect("stats");
        assert_eq!(snapshot.stored, 2);
        assert_eq!(snapshot.epoch, epoch_after);
        assert_eq!(snapshot.workers, 1, "engine itself runs sequential queries");
        // 2 warmup + 12 hammered + 2 batch + 1 repair-read = 17 generate calls
        assert_eq!(snapshot.stats.queries, 17);
        assert!(
            snapshot.stats.warm_hits >= 14,
            "most queries were store hits"
        );
        assert_eq!(per_worker.len(), 3);

        // Error paths: out-of-range node, malformed JSON, unknown route.
        let bad = Json::obj([("nodes", Json::nums([usize::MAX >> 8]))]);
        let (status, body) = warmup
            .request("POST", "/generate", Some(&bad))
            .expect("request");
        assert_eq!(status, 400, "{body:?}");
        let (status, _) = warmup.request("POST", "/nope", None).expect("request");
        assert_eq!(status, 404);
        let (status, _) = warmup.request("GET", "/generate", None).expect("request");
        assert_eq!(status, 405, "wrong method on a known route is 405, not 404");

        warmup.shutdown().expect("shutdown");
        server_thread.join().expect("server thread")
    });

    // 1 warmup connection + 2 client threads = 3 served connections, and the
    // pool counted every request.
    assert_eq!(report.connections, 3);
    assert_eq!(report.requests_per_worker.len(), 3);
    // warmup: 2 gen + 1 batch + 2 healthz + 1 disturb + 1 gen + 1 stats
    //         + 3 error probes + 1 shutdown = 12; hammer threads: 6 each.
    assert_eq!(report.requests_total(), 24);
}

#[test]
fn shutdown_closes_other_kept_alive_connections() {
    let ds = citeseer::build(Scale::Tiny, 6);
    let appnp = ds.train_appnp(8, 6);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let server_thread = scope.spawn(move || server.serve(engine_ref, 2).expect("serve"));

        // Client A keeps a connection alive; client B shuts the server down.
        let mut a = Client::connect(&addr).expect("connect a");
        a.healthz().expect("healthz before shutdown");
        let mut b = Client::connect(&addr).expect("connect b");
        b.shutdown().expect("shutdown");

        // A's in-flight connection still answers one more request (served
        // with `connection: close`), after which the pool drains — the join
        // below must not hang on A's open connection.
        a.healthz().expect("healthz during drain");
        let report = server_thread
            .join()
            .expect("server exits despite a's open connection");
        assert!(report.requests_total() >= 3);
    });
}

#[test]
fn retired_generate_batch_alias_gets_typed_not_found() {
    let ds = citeseer::build(Scale::Tiny, 8);
    let appnp = ds.train_appnp(8, 8);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let queries = [ds.pick_test_nodes(2, 5), ds.pick_test_nodes(2, 11)];

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let server_thread = scope.spawn(move || server.serve(engine_ref, 2).expect("serve"));

        let body = wire::versioned(Json::obj([(
            "queries",
            Json::Arr(
                queries
                    .iter()
                    .map(|nodes| Json::nums(nodes.iter().copied()))
                    .collect(),
            ),
        )]));
        let mut client = Client::connect(&addr).expect("connect");

        // Wire v1 has one spelling per endpoint: the pre-v1 `/generate_batch`
        // alias is a plain unknown path, answered with the typed 404 body.
        let (status, _) = client
            .request("POST", "/generate/batch", Some(&body))
            .expect("canonical batch");
        assert_eq!(status, 200);
        let (status, reply) = client
            .request("POST", "/generate_batch", Some(&body))
            .expect("retired alias");
        assert_eq!(status, 404);
        let error = wire::error_from_json(&reply).expect("structured 404 body");
        assert_eq!(error.code, "not_found");
        assert!(!error.retryable);

        // Structured error bodies: machine-readable code + retryable flag.
        let (status, body) = client.request("POST", "/nope", None).expect("404 probe");
        assert_eq!(status, 404);
        let error = wire::error_from_json(&body).expect("structured 404 body");
        assert_eq!(error.code, "not_found");
        assert!(!error.retryable);
        let (status, body) = client.request("GET", "/generate", None).expect("405 probe");
        assert_eq!(status, 405);
        let error = wire::error_from_json(&body).expect("structured 405 body");
        assert_eq!(error.code, "method_not_allowed");
        assert!(!error.retryable);

        // Version negotiation: missing and future "v" are typed rejections.
        let unversioned = Json::obj([("nodes", Json::nums(queries[0].iter().copied()))]);
        let (status, body) = client
            .request("POST", "/generate", Some(&unversioned))
            .expect("missing v");
        assert_eq!(status, 400);
        let error = wire::error_from_json(&body).expect("structured bad_version body");
        assert_eq!(error.code, "bad_version");
        let future = Json::obj([
            ("v", Json::num(2u64)),
            ("nodes", Json::nums(queries[0].iter().copied())),
        ]);
        let (status, body) = client
            .request("POST", "/generate", Some(&future))
            .expect("future v");
        assert_eq!(status, 400);
        let error = wire::error_from_json(&body).expect("structured future-version body");
        assert_eq!(error.code, "bad_version");
        assert!(
            error.detail.contains("unsupported wire version 2"),
            "detail names the offered version: {}",
            error.detail
        );

        client.shutdown().expect("shutdown");
        server_thread.join().expect("server thread");
    });
}

#[test]
fn malformed_http_gets_a_400_and_does_not_wedge_the_server() {
    use std::io::{Read, Write};

    let ds = citeseer::build(Scale::Tiny, 4);
    let appnp = ds.train_appnp(8, 4);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let server_thread = scope.spawn(move || server.serve(engine_ref, 2).expect("serve"));

        // Raw garbage: the worker answers 400 and closes, nothing crashes.
        let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
        raw.write_all(b"THIS IS NOT HTTP\r\n\r\n").expect("write");
        let mut reply = String::new();
        raw.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");
        drop(raw);

        // A well-formed request with a malformed JSON body: 400, connection
        // stays usable.
        let mut client = Client::connect(&addr).expect("connect");
        let (status, body) = client
            .request("POST", "/disturb", Some(&Json::Str("not an object".into())))
            .expect("request");
        assert_eq!(status, 400, "{body:?}");
        assert!(client.healthz().is_ok(), "connection still serves");

        client.shutdown().expect("shutdown");
        server_thread.join().expect("join")
    });
}
