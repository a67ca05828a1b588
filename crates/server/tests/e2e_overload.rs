//! Overload acceptance test: a 1-worker server with a queue bound of 1 sheds
//! excess requests with `429` through the event loop's write path and
//! rejects expired deadlines with `503`, both round-tripping through the
//! blocking client as typed protocol errors, with exact request accounting
//! in the final [`rcw_server::ServeReport`]. The event loop's own framing
//! rejections (`408` for a stalled head, `413` for an oversized declared
//! body, `400` for a transfer encoding) are driven over raw TCP.

use rcw_core::{RcwConfig, WitnessEngine};
use rcw_datasets::{citeseer, Scale};
use rcw_server::client::{Client, ClientError};
use rcw_server::faults::FaultPlan;
use rcw_server::http::MAX_BODY_BYTES;
use rcw_server::{RcwServer, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Expects a typed protocol error with the given status; returns its message.
fn expect_status(result: Result<impl std::fmt::Debug, ClientError>, status: u16) -> String {
    match result {
        Err(ClientError::Protocol(got, message)) if got == status => message,
        other => panic!("expected a status-{status} protocol error, got {other:?}"),
    }
}

/// Reads from a raw socket until the buffered bytes contain `marker`.
fn read_until(stream: &mut TcpStream, marker: &str) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let text = String::from_utf8_lossy(&buf).into_owned();
        if text.contains(marker) {
            return text;
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("peer closed before {marker:?} arrived; got {text:?}"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed waiting for {marker:?}: {e}; got {text:?}"),
        }
    }
}

#[test]
fn saturated_server_sheds_429_and_expired_deadlines_get_503() {
    let ds = citeseer::build(Scale::Tiny, 9);
    let appnp = ds.train_appnp(8, 9);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    // The smallest possible server: one worker, one queue slot, no default
    // deadline, and an injected stall that wedges the worker on its first
    // claim. Overload behavior is then fully deterministic: the stalled
    // claim holds the worker, one request occupies the single queue slot,
    // and everything after that is shed at admission.
    let stall = FaultPlan::parse("read_stall=1@1", 0).expect("fault spec");
    let config = ServerConfig::single(&engine)
        .with_workers(1)
        .with_queue_bound(1)
        .with_faults(Arc::new(stall));

    let report = std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));

        // Pin the only worker: A's request is admitted and claimed, and the
        // injected stall sits on it. Raw sockets, because a blocking client
        // would wait for the response here.
        let mut a = TcpStream::connect(&addr).expect("connect a");
        a.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("send a");
        std::thread::sleep(Duration::from_millis(80));
        // B occupies the single queue slot while the worker is stalled.
        let mut b = TcpStream::connect(&addr).expect("connect b");
        b.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("send b");
        std::thread::sleep(Duration::from_millis(40));

        // The worker is stalled and the queue is full: the next two
        // requests are shed with 429 through the event loop's write path,
        // and the wire error carries queue-depth stats.
        for _ in 0..2 {
            let mut shed = Client::connect(&addr).expect("connect shed");
            let message = expect_status(shed.generate(&[0]), 429);
            assert!(message.contains("overloaded"), "got: {message}");
            let (status, body) = shed
                .request("GET", "/healthz", None)
                .map(|r| (r.0, r.1))
                .unwrap_or((0, rcw_server::wire::Json::Null));
            // The shed connection was closed after the 429; a follow-up on
            // it either fails outright or never reaches the engine.
            assert_ne!(
                status, 200,
                "shed connection must not keep serving: {body:?}"
            );
        }

        // The stall ends: A's claim finishes normally, then the worker
        // drains B from the queue.
        assert!(
            read_until(&mut a, "\"ok\"").starts_with("HTTP/1.1 200"),
            "a served after the stall"
        );
        drop(a);
        assert!(
            read_until(&mut b, "\"ok\"").starts_with("HTTP/1.1 200"),
            "b served from the queue"
        );
        drop(b);

        // Deadline path: a zero-millisecond deadline is already expired
        // when the query reaches the engine boundary, so it is answered 503
        // before any session work; clearing the deadline makes the same
        // connection usable.
        let mut d = Client::connect(&addr).expect("connect d");
        d.set_deadline_ms(Some(0));
        let message = expect_status(d.generate(&[0]), 503);
        assert!(message.contains("deadline"), "got: {message}");
        d.set_deadline_ms(None);
        d.healthz().expect("healthz after clearing the deadline");

        // The engine saw zero queries: every generate above was shed or
        // rejected before reaching it.
        let (snapshot, per_worker) = d.stats().expect("stats");
        assert_eq!(snapshot.stats.queries, 0, "no query reached the engine");
        assert_eq!(per_worker.len(), 1);

        // Server-side counters agree over the wire.
        let (status, body) = d.request("GET", "/stats", None).expect("raw stats");
        assert_eq!(status, 200);
        let server_obj = body.field("server").expect("server object");
        assert_eq!(
            server_obj.field("queue_bound").unwrap().as_u64().unwrap(),
            1
        );
        assert_eq!(server_obj.field("overloaded").unwrap().as_u64().unwrap(), 2);
        assert_eq!(
            server_obj
                .field("deadline_rejections")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );

        d.shutdown().expect("shutdown");
        server_thread.join().expect("server thread")
    });

    // Exact accounting: a, b, d had requests admitted; the two shed
    // connections never did. The pool answered a:1 + b:1 + d:(503 generate,
    // healthz, stats, raw stats, shutdown) = 7 requests in total.
    assert_eq!(report.connections, 3);
    assert_eq!(report.overloaded, 2);
    assert_eq!(report.deadline_rejections, 1);
    assert_eq!(report.requests_total(), 7);
}

#[test]
fn default_deadline_rejects_with_503_and_stores_nothing() {
    let ds = citeseer::build(Scale::Tiny, 12);
    let appnp = ds.train_appnp(8, 12);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    // A 1ms *default* deadline (no client header): the engine's entry check
    // may pass, but the session budget expires between phases — either way
    // the wire answer is 503 and the store stays empty.
    let config = ServerConfig::single(&engine)
        .with_workers(2)
        .with_default_deadline(Some(Duration::from_millis(1)));

    std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));

        let mut client = Client::connect(&addr).expect("connect");
        // Four test nodes: enough expand work that a cold session can never
        // finish inside 1ms, so the 503 is deterministic.
        let tests = ds.pick_test_nodes(4, 5);
        let message = match client.generate(&tests) {
            Err(ClientError::Protocol(503, message)) => message,
            other => panic!("expected 503 under a 1ms default deadline, got {other:?}"),
        };
        assert!(message.contains("deadline"), "got: {message}");
        // An aborted query never pollutes the witness store; a header can
        // override the default deadline upward and complete the query.
        client.set_deadline_ms(Some(60_000));
        let served = client.generate(&tests).expect("generous header deadline");
        assert!(served.witness.subgraph.contains_node(tests[0]));
        let (snapshot, _) = client.stats().expect("stats");
        assert_eq!(snapshot.stored, 1, "only the completed query is stored");

        // Keep-alive idle time is never billed against the next request's
        // window: after sleeping well past the deadline, a warm query with
        // a short (but sufficient) header deadline still succeeds because
        // its window starts when the request arrives.
        client.set_deadline_ms(Some(500));
        std::thread::sleep(Duration::from_millis(700));
        let warm = client.generate(&tests).expect("idle time not billed");
        assert_eq!(warm.witness, served.witness);

        // Control endpoints ignore the deadline entirely: even a
        // zero-window request must reach /healthz and /stats, so an
        // operator can inspect and stop an overloaded server.
        client.set_deadline_ms(Some(0));
        client.healthz().expect("healthz is exempt from deadlines");
        client.stats().expect("stats is exempt from deadlines");

        // ...including /shutdown: graceful stop works under deadline
        // pressure.
        client
            .shutdown()
            .expect("shutdown is exempt from deadlines");
        server_thread.join().expect("server thread")
    });
}

/// Reads a raw socket until the server closes it.
fn read_to_close(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read until close");
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn framing_rejections_answer_408_413_and_400_and_close() {
    let ds = citeseer::build(Scale::Tiny, 12);
    let appnp = ds.train_appnp(8, 12);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let io_timeout = Duration::from_millis(400);
    let config = ServerConfig::single(&engine)
        .with_workers(1)
        .with_io_timeout(io_timeout);

    let report = std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));

        // Half a head, then silence: the peer gets 2 × io_timeout for the
        // whole request, then a 408 and a close. The upper bound leaves 1 s
        // for the 25 ms timeout scan and a loaded machine.
        let mut stalled = TcpStream::connect(&addr).expect("connect stalled");
        let sent = Instant::now();
        stalled
            .write_all(b"POST /generate HTTP/1.1\r\ncontent-le")
            .expect("write half a head");
        let text = read_to_close(&mut stalled);
        let waited = sent.elapsed();
        assert!(text.starts_with("HTTP/1.1 408 "), "got {text:?}");
        assert!(text.contains("connection: close\r\n"), "got {text:?}");
        assert!(text.contains("\"timeout\""), "got {text:?}");
        assert!(
            waited >= 2 * io_timeout && waited < 2 * io_timeout + Duration::from_secs(1),
            "408 after {waited:?}, io_timeout {io_timeout:?}"
        );

        // A declared body past MAX_BODY_BYTES is refused from the head
        // alone: no body byte is sent, and the 413 and the close arrive
        // well inside io_timeout, so the loop never waited for one.
        let mut oversized = TcpStream::connect(&addr).expect("connect oversized");
        let sent = Instant::now();
        let head = format!(
            "POST /generate HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        oversized.write_all(head.as_bytes()).expect("write head");
        let text = read_to_close(&mut oversized);
        assert!(text.starts_with("HTTP/1.1 413 "), "got {text:?}");
        assert!(text.contains("connection: close\r\n"), "got {text:?}");
        assert!(text.contains("\"too_large\""), "got {text:?}");
        assert!(
            sent.elapsed() < io_timeout,
            "413 after {:?}",
            sent.elapsed()
        );

        // Transfer encodings are out of scope: a clean 400 and a close.
        let mut chunked = TcpStream::connect(&addr).expect("connect chunked");
        chunked
            .write_all(b"POST /generate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
            .expect("write head");
        let text = read_to_close(&mut chunked);
        assert!(text.starts_with("HTTP/1.1 400 "), "got {text:?}");
        assert!(text.contains("connection: close\r\n"), "got {text:?}");
        assert!(text.contains("transfer-encoding"), "got {text:?}");

        // The loop answered all three itself and still serves.
        let mut client = Client::connect(&addr).expect("connect");
        client.healthz().expect("healthz after the rejections");
        client.shutdown().expect("shutdown");
        server_thread.join().expect("server thread")
    });
    // Framing rejections never reach the scheduler or the request ledger.
    assert_eq!(report.requests_total(), 2, "only healthz and shutdown");
}
