//! Answer fingerprint: runs the seeded in-process serving workload of
//! [`rcw_bench::fingerprint`], prints one canonical line per answer and one
//! FNV-1a digest per engine, and compares the digests with the committed
//! `ANSWERS.json` at the workspace root.
//!
//! Usage:
//!   cargo run --release -p rcw-bench --bin rcw_fingerprint
//!
//! Exits non-zero if any digest differs from `ANSWERS.json` (or the file is
//! missing); the fresh digests are printed as the JSON the file holds, so a
//! change that moves answers on purpose can commit them and declare the
//! changed lines.

use rcw_bench::fingerprint::{answers_json, run};
use std::process::ExitCode;

fn main() -> ExitCode {
    let engines = run();
    for e in &engines {
        for line in &e.lines {
            println!("{} {line}", e.name);
        }
    }
    for e in &engines {
        println!("digest {} {:016x}", e.name, e.digest);
    }
    let fresh = answers_json(&engines);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ANSWERS.json");
    match std::fs::read_to_string(path) {
        Ok(pinned) if pinned == fresh => {
            println!(
                "rcw_fingerprint: {} digests match ANSWERS.json",
                engines.len()
            );
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("rcw_fingerprint: answers differ from ANSWERS.json; fresh digests:\n{fresh}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rcw_fingerprint: cannot read ANSWERS.json ({e}); fresh digests:\n{fresh}");
            ExitCode::FAILURE
        }
    }
}
