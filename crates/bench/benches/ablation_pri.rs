//! Ablation A1: policy-iteration (PRI) disturbance search vs exhaustive
//! enumeration of (k, b)-disturbances, as the candidate set grows.

use rcw_bench::timing::BenchGroup;
use rcw_datasets::{citeseer, Scale};
use rcw_graph::disturbance::enumerate_disturbances_up_to;
use rcw_graph::GraphView;
use rcw_pagerank::{pri_search, PriConfig};

fn main() {
    let ds = citeseer::build(Scale::Tiny, 3);
    let appnp = ds.train_appnp(16, 1);
    let view = GraphView::full(&ds.graph);
    let h = appnp.local_logits(&ds.graph);
    let v = ds.test_pool[0];
    let r: Vec<f64> = (0..ds.graph.num_nodes())
        .map(|u| h.get(u, 1) - h.get(u, 0))
        .collect();
    let edges = ds.graph.edge_vec();

    let mut group = BenchGroup::new("ablation_pri", 10);
    for n_candidates in [6usize, 10, 16] {
        let candidates = &edges[..n_candidates.min(edges.len())];
        let cfg = PriConfig {
            alpha: appnp.alpha(),
            local_budget: 2,
            max_rounds: 6,
            value_iters: 30,
        };
        group.bench(format!("pri_greedy/{n_candidates}"), || {
            pri_search(&view, candidates, &r, v, &cfg)
        });
        group.bench(format!("exhaustive_enumeration/{n_candidates}"), || {
            enumerate_disturbances_up_to(candidates, 3).len()
        });
    }
    group.finish();
}
