//! The verifier's candidate pool, read off the neighborhood's own adjacency,
//! against the scan over every host edge it replaced: after the sort and
//! dedup the pools are identical, on seeded SBM graphs and on CiteSeer
//! Tiny/Small, for removal-only and mixed strategies, with and without
//! protected edges.

use robogexp::core::candidate_pairs_bounded;
use robogexp::datasets::citeseer;
use robogexp::graph::generators::{ensure_connected, stochastic_block_model};
use robogexp::graph::traversal::k_hop_neighborhood_multi;
use robogexp::graph::{norm_edge, DisturbanceStrategy, Edge};
use robogexp::linalg::rng::Rng;
use robogexp::prelude::*;
use std::collections::BTreeSet;

/// The pool as the host-edge scan built it, before any PPR pruning.
fn scanned_pool(
    graph: &Graph,
    protected: &EdgeSet,
    test_nodes: &[NodeId],
    hood: &BTreeSet<NodeId>,
    cfg: &RcwConfig,
) -> Vec<Edge> {
    let mut out: Vec<Edge> = Vec::new();
    for (u, v) in graph.edges() {
        if hood.contains(&u) && hood.contains(&v) && !protected.contains(u, v) {
            out.push((u, v));
        }
    }
    if !matches!(cfg.strategy, DisturbanceStrategy::RemovalOnly) {
        let mut inserted = 0usize;
        'outer: for &t in test_nodes {
            for &u in hood {
                if inserted >= cfg.max_insert_candidates {
                    break 'outer;
                }
                if u != t && !graph.has_edge(t, u) && !protected.contains(t, u) {
                    out.push(norm_edge(t, u));
                    inserted += 1;
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn assert_pools_match(name: &str, graph: &Graph, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let n = graph.num_nodes();
    let edges = graph.edge_vec();
    let mut compared = 0;
    for i in 0..30 {
        let test_nodes: Vec<NodeId> = (0..1 + i % 3).map(|_| rng.gen_range(0..n)).collect();
        let protected: EdgeSet = if i % 2 == 0 {
            EdgeSet::new()
        } else {
            edges.iter().copied().skip(i).step_by(3).collect()
        };
        for strategy in [DisturbanceStrategy::RemovalOnly, DisturbanceStrategy::Mixed] {
            for hops in [1, 2] {
                let cfg = RcwConfig {
                    strategy,
                    candidate_hops: hops,
                    max_candidate_pairs: usize::MAX,
                    ..RcwConfig::default()
                };
                let hood = k_hop_neighborhood_multi(graph, &test_nodes, hops);
                let pool =
                    candidate_pairs_bounded(graph, &protected, &test_nodes, &hood, &cfg, None);
                assert_eq!(
                    pool,
                    scanned_pool(graph, &protected, &test_nodes, &hood, &cfg),
                    "{name}: nodes {test_nodes:?}, {strategy:?}, {hops} hops"
                );
                compared += pool.len();
            }
        }
    }
    assert!(compared > 0, "{name}: every pool was empty");
}

#[test]
fn hood_adjacency_pool_equals_the_host_edge_scan() {
    for seed in 0u64..4 {
        let (mut g, _) = stochastic_block_model(&[15, 15, 15], 0.3, 0.04, seed);
        ensure_connected(&mut g, seed);
        assert_pools_match(&format!("SBM seed {seed}"), &g, seed);
    }
    for scale in [Scale::Tiny, Scale::Small] {
        let ds = citeseer::build(scale, 7);
        assert_pools_match(&format!("CiteSeer {scale:?}"), &ds.graph, 7);
    }
}
