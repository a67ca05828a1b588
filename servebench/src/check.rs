//! Run guards over `/stats` deltas, and the bit-exact answer comparison.

use crate::inputs::ROUTES;
use crate::reference::same_answer;
use crate::serve::Stats;
use rcw_core::GenerationResult;
use rcw_server::wire;

/// Per-route change of the engine counters across one timed window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    pub queries: usize,
    pub warm_hits: usize,
    pub sessions_run: usize,
    pub stored: isize,
    pub hood_hits: usize,
    pub hood_misses: usize,
}

/// The per-route deltas between two readings.
pub fn deltas(before: &Stats, after: &Stats) -> [Delta; 2] {
    std::array::from_fn(|r| {
        let (b, a) = (&before.engines[r], &after.engines[r]);
        Delta {
            queries: a.stats.queries - b.stats.queries,
            warm_hits: a.stats.warm_hits - b.stats.warm_hits,
            sessions_run: a.stats.sessions_run - b.stats.sessions_run,
            stored: a.stored as isize - b.stored as isize,
            hood_hits: a.hood_hits - b.hood_hits,
            hood_misses: a.hood_misses - b.hood_misses,
        }
    })
}

/// A window of warm reads: every request was a store hit, no session ran,
/// and the store neither grew nor shrank. With `hood_untouched`, the
/// neighbourhood cache must not have been consulted either.
pub fn warm_guard(
    window: &str,
    reads: [usize; 2],
    d: &[Delta; 2],
    hood_untouched: bool,
) -> Result<(), String> {
    for (r, route) in ROUTES.iter().enumerate() {
        let want = Delta {
            queries: reads[r],
            warm_hits: reads[r],
            ..Delta::default()
        };
        let got = Delta {
            hood_hits: if hood_untouched { d[r].hood_hits } else { 0 },
            hood_misses: if hood_untouched { d[r].hood_misses } else { 0 },
            ..d[r]
        };
        if got != want {
            return Err(format!(
                "{window} window on /{route}: expected {want:?}, /stats moved by {got:?}"
            ));
        }
    }
    Ok(())
}

/// A window of cold requests: each ran exactly one session and stored one
/// new witness; none was a store hit. A repeated node set shows up as a
/// warm hit; a store reset as a shrinking store.
pub fn cold_guard(sent: [usize; 2], d: &[Delta; 2]) -> Result<(), String> {
    for (r, route) in ROUTES.iter().enumerate() {
        if d[r].sessions_run != sent[r] || d[r].warm_hits != 0 || d[r].stored != sent[r] as isize {
            return Err(format!(
                "cold window on /{route}: sent {} cold requests, but sessions_run moved by {}, \
                 warm_hits by {}, stored by {}",
                sent[r], d[r].sessions_run, d[r].warm_hits, d[r].stored
            ));
        }
    }
    Ok(())
}

/// Whether a served answer body reproduces the reference answer bit-exactly
/// (witness, level, nontrivial, stale).
pub fn answer_matches(body: &str, reference: &GenerationResult) -> bool {
    wire::generation_from_body(body.trim_end()).is_ok_and(|served| same_answer(&served, reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate_body;
    use crate::load::{cold_requests, Query};
    use crate::serve::read_stats;
    use rcw_core::{RcwConfig, WitnessEngine};
    use rcw_datasets::{citeseer, Scale};
    use rcw_server::{RcwServer, ServerConfig};
    use std::sync::Arc;
    use std::time::Duration;

    fn quick_cfg() -> RcwConfig {
        RcwConfig {
            k: 1,
            local_budget: 1,
            max_expand_rounds: 2,
            sampled_disturbances: 4,
            ..RcwConfig::default()
        }
    }

    /// Serves two tiny engines under the benchmark's route names, runs
    /// `client` against them, and shuts the server down.
    fn with_server(client: impl FnOnce(&str)) {
        let ds = citeseer::build(Scale::Tiny, 3);
        let gcn = ds.train_gcn(8, 3);
        let appnp = ds.train_appnp(8, 3);
        let gcn_engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &gcn, quick_cfg());
        let appnp_engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
        let config = ServerConfig::single(&gcn_engine)
            .with_route(ROUTES[0], &gcn_engine)
            .with_route(ROUTES[1], &appnp_engine)
            .with_workers(2);
        let server = RcwServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve_config(&config).expect("serve"));
            client(&addr);
            rcw_server::client::Client::connect(&addr)
                .and_then(|mut c| c.shutdown())
                .expect("shutdown");
            serving.join().expect("server thread");
        });
    }

    fn cold_window(addr: &str, sets: [&[Vec<usize>]; 2]) -> Result<(), String> {
        let queries: [Vec<Query>; 2] =
            std::array::from_fn(|r| sets[r].iter().map(|s| Query::new(r, s)).collect());
        let before = read_stats(addr)?;
        let cold = cold_requests(
            addr,
            [&queries[0], &queries[1]],
            Duration::from_secs(60),
            None,
        )?;
        let after = read_stats(addr)?;
        assert_eq!(cold.sent, sets[0].len() + sets[1].len());
        cold_guard([sets[0].len(), sets[1].len()], &deltas(&before, &after))
    }

    #[test]
    fn a_repeated_cold_query_trips_the_cold_guard() {
        with_server(|addr| {
            let fresh = [vec![vec![0], vec![1, 2]], vec![vec![0], vec![3]]];
            cold_window(addr, [&fresh[0], &fresh[1]]).expect("distinct sets pass");
            // The same set again is a store hit, not a cold session.
            let repeated = [vec![vec![4], vec![1, 2]], vec![vec![5], vec![6]]];
            let err = cold_window(addr, [&repeated[0], &repeated[1]]).unwrap_err();
            assert!(err.contains("/gcn"), "{err}");
        });
    }

    #[test]
    fn a_tampered_answer_trips_the_correctness_check() {
        with_server(|addr| {
            let mut client = rcw_server::client::Client::connect(addr).expect("connect");
            client.set_route(Some(ROUTES[0]));
            let (status, body) = client
                .generate_text(&generate_body(&[0, 1]))
                .expect("generate");
            assert_eq!(status, 200);
            let reference = wire::generation_from_body(body.trim_end()).expect("decodes");
            assert!(answer_matches(&body, &reference));
            // Same witness, different verdict.
            let level = wire::level_to_str(reference.level);
            let other = if level == "robust" {
                "factual"
            } else {
                "robust"
            };
            let tampered = body.replace(
                &format!("\"level\":\"{level}\""),
                &format!("\"level\":\"{other}\""),
            );
            assert_ne!(tampered, body);
            assert!(!answer_matches(&tampered, &reference));
            // A witness missing one node.
            let node = reference.witness.test_nodes[0];
            let mut fewer = reference.clone();
            fewer.witness.test_nodes.retain(|&v| v != node);
            assert!(!answer_matches(&body, &fewer));
            assert!(!answer_matches("{\"v\":1}", &reference));
        });
    }
}
