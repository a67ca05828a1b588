//! Experiment E1 — reproduces Table III (quality of explanations on the
//! CiteSeer-like dataset, k=20, |VT|=20).
//!
//! Usage: `cargo run --release -p rcw-bench --bin exp_table3 [-- --quick]`

use rcw_bench::{table3, table3_run};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
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
}
