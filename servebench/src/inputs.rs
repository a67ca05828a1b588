//! Seeded workload inputs: the warm working set, the cold node-set lists,
//! and the disturbance events. Everything here is a function of the dataset
//! and the workload seed alone; the server only ever sees the results.

use rcw_graph::traversal::k_hop_neighborhood_multi;
use rcw_graph::{Graph, NodeId};
use rcw_linalg::Rng;
use std::collections::BTreeSet;

/// The served routes, in the order `rcw_serve` registers them.
pub const ROUTES: [&str; 2] = ["gcn", "appnp"];

/// `rcw_core`'s witness-store cap (`WITNESS_STORE_CAP`): an engine that
/// stores this many witnesses clears its store on the next cold insert.
pub const WITNESS_STORE_CAP: usize = 4096;
/// `rcw_core`'s neighbourhood-cache cap (`HOOD_CACHE_CAP`).
pub const HOOD_CACHE_CAP: usize = 1024;

/// Flips per disturbance event (the serving config's `k`).
pub const FLIPS_PER_EVENT: usize = 2;

/// One `/disturb` event against one route.
#[derive(Clone, Debug)]
pub struct Event {
    pub route: usize,
    pub flips: Vec<(NodeId, NodeId)>,
}

/// Sizes of the generated inputs.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Distinct warm node sets per route.
    pub working: usize,
    /// Distinct cold node sets per route (an upper bound on cold requests).
    pub cold: usize,
    /// Disturbance events in total (alternating routes).
    pub events: usize,
}

/// Every input one run sends.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// `working[route]`: canonical node sets that are warmed, then read.
    pub working: [Vec<Vec<NodeId>>; 2],
    /// `cold[route]`: canonical node sets never sent before, in send order.
    pub cold: [Vec<Vec<NodeId>>; 2],
    /// Disturbance events in send order; routes alternate.
    pub events: Vec<Event>,
}

/// Draws a canonical (sorted, deduplicated) set of `size` test nodes.
fn node_set(rng: &mut Rng, pool: &[NodeId], size: usize) -> Vec<NodeId> {
    let size = size.min(pool.len());
    let mut set = BTreeSet::new();
    while set.len() < size {
        set.insert(pool[rng.gen_range(0..pool.len())]);
    }
    set.into_iter().collect()
}

/// Draws `count` node sets that are not in `seen`, adding each to it. Set
/// sizes cycle through 1, 2, 3, 4, so the size mix does not depend on the
/// seed (session cost grows with the set size). Once a size is used up (the
/// pool has few single nodes), the draw moves to the next larger size.
fn distinct_sets(
    rng: &mut Rng,
    pool: &[NodeId],
    count: usize,
    seen: &mut BTreeSet<Vec<NodeId>>,
) -> Vec<Vec<NodeId>> {
    const TRIES: usize = 64;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut size = 1 + out.len() % 4;
        let mut tries = 0;
        loop {
            let set = node_set(rng, pool, size);
            if seen.insert(set.clone()) {
                out.push(set);
                break;
            }
            tries += 1;
            if tries == TRIES {
                assert!(
                    size < pool.len(),
                    "test pool too small for {count} distinct sets"
                );
                (size, tries) = (size + 1, 0);
            }
        }
    }
    out
}

/// Builds a run's inputs from the test pool, each route's host graph, and
/// the workload seed. Node sets are distinct across both lists and both
/// routes, so no cold request can be a store hit.
pub fn generate(test_pool: &[NodeId], graphs: [&Graph; 2], seed: u64, sizes: Sizes) -> Inputs {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eb0_c4b1_0000_0001);
    let mut seen = BTreeSet::new();
    let working = [
        distinct_sets(&mut rng, test_pool, sizes.working, &mut seen),
        distinct_sets(&mut rng, test_pool, sizes.working, &mut seen),
    ];
    let cold = [
        distinct_sets(&mut rng, test_pool, sizes.cold, &mut seen),
        distinct_sets(&mut rng, test_pool, sizes.cold, &mut seen),
    ];
    // Flip candidates: host edges with both endpoints inside the 2-hop
    // neighbourhood of the route's working set, so every event lands where
    // stored witnesses live.
    let candidates: Vec<Vec<(NodeId, NodeId)>> = (0..2)
        .map(|r| {
            let seeds: Vec<NodeId> = working[r].iter().flatten().copied().collect();
            let hood = k_hop_neighborhood_multi(graphs[r], &seeds, 2);
            graphs[r]
                .edges()
                .filter(|(u, v)| hood.contains(u) && hood.contains(v))
                .collect()
        })
        .collect();
    let events = (0..sizes.events)
        .map(|i| {
            let route = i % 2;
            let pool = &candidates[route];
            let mut flips: Vec<(NodeId, NodeId)> = Vec::with_capacity(FLIPS_PER_EVENT);
            while flips.len() < FLIPS_PER_EVENT.min(pool.len()) {
                let pair = pool[rng.gen_range(0..pool.len())];
                if !flips.contains(&pair) {
                    flips.push(pair);
                }
            }
            Event { route, flips }
        })
        .collect();
    Inputs {
        working,
        cold,
        events,
    }
}

/// Checks, before anything is sent, that neither engine cache can reach its
/// cap during the run. The store holds at most the working set plus the cold
/// list. The neighbourhood cache holds at most one candidate-radius key per
/// node set, one repair-radius key per working set (only working sets are
/// stored when disturbances sweep the store), and one key per single test
/// node (APPNP's per-node verification).
pub fn check_cache_caps(inputs: &Inputs, test_pool_len: usize) -> Result<(), String> {
    for (r, route) in ROUTES.iter().enumerate() {
        let sets = inputs.working[r].len() + inputs.cold[r].len();
        if sets >= WITNESS_STORE_CAP {
            return Err(format!(
                "{route}: {sets} node sets reach the witness-store cap {WITNESS_STORE_CAP}"
            ));
        }
        let hood_keys = sets + inputs.working[r].len() + test_pool_len;
        if hood_keys >= HOOD_CACHE_CAP {
            return Err(format!(
                "{route}: up to {hood_keys} neighbourhood keys reach the cache cap {HOOD_CACHE_CAP}"
            ));
        }
    }
    Ok(())
}

/// The `/generate` request body for a node set.
pub fn generate_body(nodes: &[NodeId]) -> String {
    let list: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    format!("{{\"v\":1,\"nodes\":[{}]}}", list.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_datasets::{citeseer, Scale};

    fn inputs(seed: u64) -> (Inputs, usize) {
        let ds = citeseer::build(Scale::Small, 7);
        let sizes = Sizes {
            working: 100,
            cold: 400,
            events: 40,
        };
        let inputs = generate(&ds.test_pool, [&ds.graph, &ds.graph], seed, sizes);
        (inputs, ds.test_pool.len())
    }

    #[test]
    fn inputs_are_seeded_distinct_and_under_the_caps() {
        let (a, pool) = inputs(3);
        let (b, _) = inputs(3);
        let (c, _) = inputs(4);
        assert_eq!(a.cold, b.cold);
        assert_ne!(a.cold, c.cold);
        let all: Vec<&Vec<NodeId>> = a.working.iter().chain(a.cold.iter()).flatten().collect();
        let distinct: BTreeSet<&Vec<NodeId>> = all.iter().copied().collect();
        assert_eq!(all.len(), distinct.len(), "node sets repeat");
        assert!(all.iter().all(|s| !s.is_empty() && s.is_sorted()));
        check_cache_caps(&a, pool).expect("sizes stay under the caps");
        assert!(a.events.iter().all(|e| e.flips.len() == FLIPS_PER_EVENT));
        assert!(a.events.windows(2).all(|w| w[0].route != w[1].route));
    }
}
