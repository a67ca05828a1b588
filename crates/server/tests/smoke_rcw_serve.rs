//! CI smoke test for the `rcw_serve` binary: spawn it on an ephemeral port,
//! run generate / disturb / stats round-trips over TCP, and assert a clean
//! graceful shutdown. Runs under plain `cargo test` (cargo builds the binary
//! and exposes its path via `CARGO_BIN_EXE_rcw_serve`).

use rcw_server::client::Client;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn rcw_serve_round_trips_and_shuts_down_cleanly() {
    let exe = env!("CARGO_BIN_EXE_rcw_serve");
    let mut child = Command::new(exe)
        .args([
            "--scale",
            "tiny",
            "--workers",
            "2",
            "--seed",
            "5",
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rcw_serve");

    // First stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read announce line");
    let addr = line
        .trim()
        .strip_prefix("rcw-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .to_string();

    let result = std::panic::catch_unwind(move || {
        let mut client = Client::connect(&addr).expect("connect");
        let epoch = client.healthz().expect("healthz");

        // generate: cold, then warm — same witness both times
        let cold = client.generate(&[0, 1]).expect("cold generate");
        assert!(cold.witness.subgraph.contains_node(0));
        assert!(cold.witness.subgraph.contains_node(1));
        let warm = client.generate(&[0, 1]).expect("warm generate");
        assert_eq!(cold.witness, warm.witness);
        assert_eq!(cold.level, warm.level);

        // disturb: flipping one pair advances the epoch and sweeps the store
        let report = client.disturb(&[(2, 3)]).expect("disturb");
        assert_eq!(report.flips_applied, 1);
        assert!(report.epoch > epoch);
        assert_eq!(report.untouched + report.reverified + report.repaired, 1);

        // stats: counters reflect exactly what this session did
        let (snapshot, per_worker) = client.stats().expect("stats");
        assert_eq!(snapshot.stats.queries, 2);
        assert_eq!(snapshot.stats.warm_hits, 1);
        assert_eq!(snapshot.stats.flips_applied, 1);
        assert_eq!(snapshot.stored, 1);
        assert_eq!(snapshot.epoch, report.epoch);
        assert_eq!(per_worker.len(), 2);
        assert_eq!(
            per_worker.iter().sum::<usize>(),
            4,
            "healthz + cold generate + disturb + this stats request ran on workers"
        );
        let (status, body) = client.request("GET", "/stats", None).expect("raw stats");
        assert_eq!(status, 200);
        let inline = body
            .field("server")
            .and_then(|server| server.field("requests_inline"))
            .and_then(|n| n.as_u64())
            .expect("server.requests_inline on the wire");
        assert_eq!(
            inline, 1,
            "the warm generate was answered on the event loop"
        );

        client.shutdown().expect("shutdown");
    });

    // Graceful shutdown: the process must exit successfully on its own.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break Some(status),
            None if Instant::now() > deadline => break None,
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let status = match status {
        Some(status) => status,
        None => {
            let _ = child.kill();
            panic!("rcw_serve did not exit within the deadline");
        }
    };
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
    assert!(status.success(), "rcw_serve exited with {status}");
}
