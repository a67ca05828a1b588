//! Deterministic disturbance replay: turns a dataset graph into a timed
//! stream of edge-flip events that can be fired at a serving tier.
//!
//! A [`ReplayPlan`] is a pure function of `(graph, seed, shape)` — the same
//! inputs always produce the same event sequence, byte for byte, which is
//! what lets the replay harness (`rcw_replay`) and the determinism tests
//! assert that two runs of the same stream produce the same wire traffic.
//! [`sequence_digest`] folds received `witness_update` frames back through
//! their canonical encoding into one order-sensitive hash, so "identical
//! update sequence" is a single `u64` comparison.

use rcw_graph::Graph;
use rcw_linalg::Rng;
use rcw_server::wire::{self, WitnessUpdate};
use std::time::Duration;

/// One timed event in a replay stream: a set of edge flips to POST as a
/// single `/disturb`, `at` after the stream starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayEvent {
    /// Offset from stream start. A paced runner sleeps until this point;
    /// an unpaced one (the determinism tests) fires events back to back.
    pub at: Duration,
    /// Edge flips applied by this event (`u < v`, no duplicates). Flips
    /// are involutions, so an edge removed by one event can be restored
    /// by a later one — long streams keep the graph near its seed shape.
    pub flips: Vec<(usize, usize)>,
}

/// A deterministic, timed disturbance stream over one graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayPlan {
    /// The seed the stream was derived from (recorded for reports).
    pub seed: u64,
    /// Events in firing order, with non-decreasing `at` offsets.
    pub events: Vec<ReplayEvent>,
}

impl ReplayPlan {
    /// Derives a plan from a graph: `events` events of `flips_per_event`
    /// distinct edges each, drawn seeded from the graph's edge list, paced
    /// `pace` apart. Pure in its inputs — same arguments, same plan.
    pub fn from_graph(
        graph: &Graph,
        seed: u64,
        events: usize,
        flips_per_event: usize,
        pace: Duration,
    ) -> Self {
        let edges: Vec<(usize, usize)> = graph.edges().collect();
        assert!(!edges.is_empty(), "replay needs a graph with edges");
        let per_event = flips_per_event.min(edges.len());
        let mut rng = Rng::seed_from_u64(seed);
        let events = (0..events)
            .map(|i| {
                let mut flips: Vec<(usize, usize)> = Vec::with_capacity(per_event);
                while flips.len() < per_event {
                    let edge = edges[rng.gen_range(0..edges.len())];
                    if !flips.contains(&edge) {
                        flips.push(edge);
                    }
                }
                ReplayEvent {
                    at: pace * i as u32,
                    flips,
                }
            })
            .collect();
        ReplayPlan { seed, events }
    }

    /// Order-sensitive content hash of the plan (FNV-1a over the event
    /// offsets and flips). Two plans with equal digests fire the same
    /// disturbances at the same offsets.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for event in &self.events {
            h.write_u64(event.at.as_micros() as u64);
            h.write_u64(event.flips.len() as u64);
            for &(u, v) in &event.flips {
                h.write_u64(u as u64);
                h.write_u64(v as u64);
            }
        }
        h.finish()
    }
}

/// Order-sensitive digest of a received update sequence: each frame is
/// re-encoded through its canonical wire form ([`wire::update_frame_to_body`])
/// and folded into one FNV-1a hash. Two subscribers saw the same stream iff
/// their digests match — same frames, same order, same bytes.
///
/// For cross-run comparison, rebase epochs first ([`rebase_epochs`]): the
/// engine epoch is a process-global clock, so absolute epochs differ
/// between runs even when everything else is byte-identical.
pub fn sequence_digest<'a>(updates: impl IntoIterator<Item = &'a WitnessUpdate>) -> u64 {
    let mut h = Fnv::new();
    for update in updates {
        h.write(wire::update_frame_to_body(update).as_bytes());
    }
    h.finish()
}

/// Rewrites each update's epoch relative to `base` (normally the
/// subscription ack's epoch). Epoch *deltas* are deterministic per stream;
/// the absolute values are positions on a process-global clock.
pub fn rebase_epochs(base: u64, updates: &mut [WitnessUpdate]) {
    for update in updates {
        update.epoch = update.epoch.saturating_sub(base);
    }
}

/// FNV-1a, 64-bit. Stable across platforms and runs — exactly the property
/// the digests need (std's `DefaultHasher` is randomly keyed per process).
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash (FNV-1a's offset basis).
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash, in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `v`'s little-endian bytes into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let g = ladder(24);
        let a = ReplayPlan::from_graph(&g, 11, 6, 2, Duration::from_millis(5));
        let b = ReplayPlan::from_graph(&g, 11, 6, 2, Duration::from_millis(5));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());

        let c = ReplayPlan::from_graph(&g, 12, 6, 2, Duration::from_millis(5));
        assert_ne!(a.digest(), c.digest(), "seed changes the stream");
    }

    #[test]
    fn events_are_paced_and_flips_are_distinct_in_range() {
        let g = ladder(16);
        let plan = ReplayPlan::from_graph(&g, 3, 4, 3, Duration::from_millis(10));
        assert_eq!(plan.events.len(), 4);
        assert!(plan.events.iter().all(|e| e.flips.len() == 3));
        for (i, event) in plan.events.iter().enumerate() {
            assert_eq!(event.at, Duration::from_millis(10) * i as u32);
            let mut seen = event.flips.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(
                seen.len(),
                event.flips.len(),
                "flips within an event are distinct"
            );
            for &(u, v) in &event.flips {
                assert!(u < v && v < 16, "flips are normalized graph edges");
            }
        }
    }

    #[test]
    fn flips_per_event_caps_at_the_edge_count() {
        let g = ladder(3); // two edges
        let plan = ReplayPlan::from_graph(&g, 1, 2, 9, Duration::ZERO);
        assert!(plan.events.iter().all(|e| e.flips.len() == 2));
    }
}
