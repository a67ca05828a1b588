//! Warm `/generate` hits answered on the event loop: they go past a wedged
//! worker, fall back to the pool while a disturb holds the store lock (the
//! loop itself never waits on it), leave expired deadlines to the worker's
//! `503`, and keep the request ledger exact.

use rcw_core::{EngineFaultHook, RcwConfig, WitnessEngine, FAULT_SITE_REPAIR};
use rcw_datasets::{citeseer, Dataset, Scale};
use rcw_gnn::Appnp;
use rcw_server::client::{Client, ClientError};
use rcw_server::faults::FaultPlan;
use rcw_server::{wire, RcwServer, ServeReport, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
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

fn fixture(seed: u64) -> (Dataset, Appnp) {
    let ds = citeseer::build(Scale::Tiny, seed);
    let appnp = ds.train_appnp(8, seed);
    (ds, appnp)
}

/// Serves `config`, runs `drive` against it, and shuts the server down even
/// when `drive` panics (so a failed check cannot wedge the scope's join).
fn serve(config: &ServerConfig<'_>, drive: impl FnOnce(&str)) -> ServeReport {
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_config(config).expect("serve"));
        let outcome = catch_unwind(AssertUnwindSafe(|| drive(&addr)));
        Client::connect(&addr)
            .and_then(|mut c| c.shutdown())
            .expect("shutdown");
        let report = serving.join().expect("server thread");
        if let Err(panic) = outcome {
            resume_unwind(panic);
        }
        report
    })
}

fn generate_body(nodes: &[usize]) -> String {
    let list: Vec<String> = nodes.iter().map(usize::to_string).collect();
    format!("{{\"v\":1,\"nodes\":[{}]}}", list.join(","))
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one complete `content-length` response off a raw socket.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .and_then(|n| n.trim().parse().ok())
                .expect("content-length header");
            if buf.len() >= end + 4 + len {
                let status = head[9..12].parse().expect("status code");
                let body = String::from_utf8_lossy(&buf[end + 4..end + 4 + len]).into_owned();
                return (status, body);
            }
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "peer closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Whether a raw socket has no response bytes waiting yet.
fn still_waiting(stream: &mut TcpStream) -> bool {
    stream.set_nonblocking(true).expect("nonblocking");
    let waiting = matches!(stream.read(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    stream.set_nonblocking(false).expect("blocking");
    waiting
}

#[test]
fn warm_hit_is_answered_beside_a_wedged_worker() {
    let (ds, appnp) = fixture(31);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let nodes = ds.pick_test_nodes(2, 4);
    engine.generate(&nodes);
    let expected = wire::generation_to_body(&engine.generate(&nodes));
    // One worker, wedged for 250 ms by the stall on its first claim.
    let stall = FaultPlan::parse("read_stall=1@1", 0).expect("fault spec");
    let config = ServerConfig::single(&engine)
        .with_workers(1)
        .with_faults(Arc::new(stall));

    let report = serve(&config, |addr| {
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("send healthz");
        std::thread::sleep(Duration::from_millis(50));

        let mut client = Client::connect(addr).expect("connect");
        let (status, body) = client
            .generate_text(&generate_body(&nodes))
            .expect("warm generate");
        assert_eq!(status, 200);
        assert_eq!(
            body.trim_end(),
            expected.trim_end(),
            "bit-exact warm answer"
        );
        assert!(
            still_waiting(&mut stalled),
            "the warm hit must not queue behind the wedged worker"
        );
        assert_eq!(read_response(&mut stalled).0, 200);
    });
    assert_eq!(report.requests_inline, 1);
}

#[test]
fn warm_hit_falls_back_to_a_worker_while_a_disturb_holds_the_store() {
    let (ds, appnp) = fixture(37);
    // The first repair step parks inside `disturb` (store lock held) until
    // the test releases it.
    let armed = Arc::new(AtomicBool::new(true));
    let entered = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let hook: EngineFaultHook = {
        let (armed, entered, release) = (armed.clone(), entered.clone(), release.clone());
        Arc::new(move |site: &str| {
            if site == FAULT_SITE_REPAIR && armed.swap(false, Ordering::SeqCst) {
                entered.wait();
                release.wait();
            }
            false
        })
    };
    let engine =
        WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg()).with_fault_hook(hook);
    let nodes = ds.pick_test_nodes(2, 8);
    engine.generate(&nodes);
    let far = (0..ds.graph.num_nodes())
        .find(|v| !nodes.contains(v))
        .expect("a node outside the query");
    let config = ServerConfig::single(&engine).with_workers(3);

    let report = serve(&config, |addr| {
        let mut reader = Client::connect(addr).expect("connect reader");
        reader.generate(&nodes).expect("inline before the disturb");

        let mut disturber = TcpStream::connect(addr).expect("connect disturber");
        let flips = format!("{{\"v\":1,\"flips\":[[{},{far}]]}}", nodes[0]);
        disturber
            .write_all(&post("/disturb", &flips))
            .expect("send disturb");
        entered.wait();

        // The store lock is held: this warm read must go to a worker (which
        // waits for the sweep) while the loop keeps serving other peers.
        let mut held_read = TcpStream::connect(addr).expect("connect held read");
        held_read
            .write_all(&post("/generate", &generate_body(&nodes)))
            .expect("send held read");
        std::thread::sleep(Duration::from_millis(50));
        let mut probe = Client::connect(addr).expect("connect probe");
        probe
            .set_read_timeout(Duration::from_secs(2))
            .expect("probe timeout");
        let health = probe.healthz();
        let pending = still_waiting(&mut held_read);
        release.wait();
        assert!(
            health.is_ok(),
            "the event loop must not wait on the store lock: {health:?}"
        );
        assert!(pending, "the held read must wait for the repair sweep");

        assert_eq!(read_response(&mut disturber).0, 200);
        let (status, body) = read_response(&mut held_read);
        assert_eq!(status, 200);
        let repaired = wire::generation_to_body(&engine.generate(&nodes));
        assert_eq!(body.trim_end(), repaired.trim_end(), "post-repair answer");
        let (status, again) = reader
            .generate_text(&generate_body(&nodes))
            .expect("inline after the disturb");
        assert_eq!(status, 200);
        assert_eq!(again.trim_end(), repaired.trim_end());
    });
    assert_eq!(
        report.requests_inline, 2,
        "the reads before and after the disturb go inline, the held one does not"
    );
}

#[test]
fn expired_deadline_on_a_warm_key_answers_503_without_an_engine_query() {
    let (ds, appnp) = fixture(41);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let nodes = ds.pick_test_nodes(2, 2);
    engine.generate(&nodes);
    let config = ServerConfig::single(&engine).with_workers(2);

    let report = serve(&config, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.generate(&nodes).expect("warm hit");
        let queries = engine.stats().queries;
        client.set_deadline_ms(Some(0));
        match client.generate(&nodes) {
            Err(ClientError::Protocol(503, message)) => {
                assert!(message.contains("deadline"), "got: {message}")
            }
            other => panic!("expected a 503 for an expired warm key, got {other:?}"),
        }
        assert_eq!(engine.stats().queries, queries, "no engine query");
    });
    assert_eq!(report.deadline_rejections, 1);
    assert_eq!(report.requests_inline, 1);
}

#[test]
fn inline_answers_keep_the_request_ledger_exact() {
    let (ds, appnp) = fixture(43);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let nodes = ds.pick_test_nodes(2, 6);
    let config = ServerConfig::single(&engine).with_workers(2);
    let mut sent = 0;

    let report = serve(&config, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let cold = client.generate(&nodes).expect("cold generate");
        for _ in 0..3 {
            let warm = client.generate(&nodes).expect("warm generate");
            assert_eq!(warm.witness, cold.witness);
        }
        client.healthz().expect("healthz");
        let out_of_range = client.generate(&[ds.graph.num_nodes()]);
        assert!(matches!(out_of_range, Err(ClientError::Protocol(400, _))));
        let (status, body) = client.request("GET", "/stats", None).expect("stats");
        sent = 7;
        assert_eq!(status, 200);
        let server = body.field("server").expect("server object");
        let counter = |name: &str| server.field(name).and_then(|n| n.as_u64()).unwrap();
        assert_eq!(counter("requests_inline"), 3);
        assert_eq!(counter("batch_claims"), 4, "one claim per worker request");
    });
    // The shutdown request is the last one answered.
    assert_eq!(report.requests_inline, 3);
    assert_eq!(report.requests_total(), sent + 1);
    let stats = engine.stats();
    assert_eq!(stats.warm_hits, 3, "every warm hit was answered inline");
    assert_eq!(
        stats.queries,
        stats.warm_hits + stats.sessions_run + stats.degraded_serves + stats.budget_aborts,
        "engine query conservation"
    );
}
