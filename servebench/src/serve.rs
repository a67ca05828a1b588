//! The server under test: spawning `rcw_serve`, reading `/stats`, shutting
//! it down, and the machine record every result carries.

use crate::inputs::ROUTES;
use rcw_core::EngineSnapshot;
use rcw_server::client::Client;
use rcw_server::wire::{self, Json};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The dataset seed `rcw_serve` and the reference engines both build from.
pub const DATASET_SEED: u64 = 7;

/// The serving flags every run uses.
pub fn serve_args() -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--model",
        "gcn=gcn:small",
        "--model",
        "appnp=appnp:small:2",
        "--seed",
        &DATASET_SEED.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A running `rcw_serve` child. Dropping it kills and reaps the process.
pub struct Served {
    child: Child,
    pub addr: String,
}

impl Served {
    /// Spawns the server and waits for its announce line; returns it with
    /// the spawn-to-announce time.
    pub fn spawn(binary: &str) -> Result<(Served, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(binary)
            .args(serve_args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {binary}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = start.elapsed();
        let mut served = Served {
            child,
            addr: String::new(),
        };
        read.map_err(|e| format!("reading the announce line: {e}"))?;
        served.addr = line
            .trim()
            .strip_prefix("rcw-serve listening on http://")
            .ok_or_else(|| format!("unexpected announce line {line:?}"))?
            .to_string();
        Ok((served, elapsed))
    }

    /// Peak resident set size of the server (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Asks the server to stop and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        asked
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `/stats` reading: both engines plus the transport counters.
#[derive(Clone, Debug)]
pub struct Stats {
    pub engines: [EngineSnapshot; 2],
    pub admission_wait_us: u64,
    pub batch_claims: u64,
    pub batch_items: u64,
}

/// Reads `/stats` over a fresh connection.
pub fn read_stats(addr: &str) -> Result<Stats, String> {
    let fail = |e: &dyn std::fmt::Display| format!("/stats: {e}");
    let mut client = Client::connect(addr).map_err(|e| fail(&e))?;
    let (status, body) = client
        .request("GET", "/stats", None)
        .map_err(|e| fail(&e))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let engines = body.field("engines").map_err(|e| fail(&e))?;
    let snap = |route: &str| -> Result<EngineSnapshot, String> {
        engines
            .field(route)
            .and_then(wire::snapshot_from_json)
            .map_err(|e| fail(&e))
    };
    let server = body.field("server").map_err(|e| fail(&e))?;
    let counter = |name: &str| -> Result<u64, String> {
        server
            .field(name)
            .and_then(Json::as_u64)
            .map_err(|e| fail(&e))
    };
    Ok(Stats {
        engines: [snap(ROUTES[0])?, snap(ROUTES[1])?],
        admission_wait_us: counter("admission_wait_us")?,
        batch_claims: counter("batch_claims")?,
        batch_items: counter("batch_items")?,
    })
}

/// FNV-1a over the paths and contents of every Rust source and manifest
/// under `crates/` and `servebench/`, plus `Cargo.lock`: identifies the code
/// measured where no git revision is available (a plain source checkout).
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "py")
            {
                out.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("servebench"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The machine and build a result was measured on.
pub fn provenance(workload: &str, seed: u64) -> Json {
    let text = |s: String| Json::Str(s.trim().to_string());
    let run = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .unwrap_or_else(|_| "unknown".to_string());
    let rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    let target_cpu = rustflags
        .split_whitespace()
        .find_map(|f| {
            f.strip_prefix("target-cpu=")
                .or(f.strip_prefix("-Ctarget-cpu="))
        })
        .unwrap_or("default")
        .to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("workload_seed", Json::num(seed)),
        ("dataset_seed", Json::num(DATASET_SEED)),
        ("nproc", Json::num(nproc as u64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", text(kernel)),
        ("rustc", Json::Str(run("rustc", &["-V"]))),
        ("git_rev", Json::Str(run("git", &["rev-parse", "HEAD"]))),
        ("source_digest", Json::Str(source_digest())),
        ("rustflags", Json::Str(rustflags)),
        ("target_cpu", Json::Str(target_cpu)),
        (
            "server_args",
            Json::Arr(serve_args().into_iter().map(Json::Str).collect()),
        ),
    ])
}
