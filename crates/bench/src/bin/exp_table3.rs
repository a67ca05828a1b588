//! Experiment E1 — reproduces Table III (quality of explanations on the
//! CiteSeer-like dataset, k=20, |VT|=20).
//!
//! Usage: `cargo run --release -p rcw-bench --bin exp_table3 [-- --quick]
//! [--check PINNED.json]`
//!
//! With `--check`, the run's quality columns (`rcw_bench::quality_json`:
//! every column but the times) must equal the pinned file exactly; on a
//! mismatch the fresh JSON is printed to stderr and the exit status is 1.
//! `BENCH_quality_full.json` pins the full run this way.

use rcw_bench::{quality_json, table3, table3_run};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a file path"));
    eprintln!("preparing CiteSeer-like dataset and training classifiers...");
    let (ctx, k, vt) = table3_run(quick);
    eprintln!(
        "dataset: {} nodes, {} edges; GCN test accuracy {:.2}",
        ctx.dataset.graph.num_nodes(),
        ctx.dataset.graph.num_edges(),
        ctx.dataset.test_accuracy(&ctx.gcn)
    );
    let table = table3(&ctx, k, vt);
    println!("{}", table.render());
    println!("{}", table.to_csv());
    if let Some(path) = check {
        let pinned = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read the quality pin {path}: {e}"));
        let fresh = quality_json(&table);
        if fresh != pinned {
            eprintln!("quality columns drifted from {path}; fresh run:\n{fresh}");
            std::process::exit(1);
        }
        eprintln!("quality columns match {path}");
    }
}
