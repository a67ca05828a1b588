//! Seeded, deterministic fault injection for the serving tier.
//!
//! A [`FaultPlan`] maps *named sites* — places in the server, connection
//! handling, and engine repair path that can fail in production — to firing
//! rules. Code under test asks [`FaultPlan::fires`] at each site; the plan
//! answers from a per-site seeded RNG, so a given `(spec, seed)` pair drives
//! the exact same fault schedule on every run. Rules with probability `1`
//! and a firing limit (`site=1@3`) fire on exactly the first *N* hits
//! regardless of thread interleaving, which is what lets the chaos suite
//! assert exact `/stats` accounting.
//!
//! The plan is config- or env-driven (`RCW_FAULT_PLAN`, `RCW_FAULT_SEED`):
//! production binaries run with the empty plan (every site answers "no" with
//! zero locking), tests and the nightly chaos leg install one.
//!
//! Spec grammar: comma-separated `site=probability[@limit]` clauses, e.g.
//! `worker_panic=1@2,conn_drop=0.1,repair_fail=1@1`.

use rcw_core::{EngineFaultHook, FAULT_SITE_REGEN, FAULT_SITE_REPAIR};
use rcw_linalg::Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Site: a request's handler panics before answering, on a worker or
/// inline on the event loop; the request's connection dies, the worker and
/// the loop survive.
pub const SITE_WORKER_PANIC: &str = "worker_panic";
/// Site: a request's connection is dropped unanswered, on a worker or
/// inline on the event loop, before it is counted or routed.
pub const SITE_CONN_DROP: &str = "conn_drop";
/// Site: the worker stalls after claiming from the admission scheduler, as
/// a slow disk or lock would — later admissions back up behind the claim
/// (clients see slow/penalized requests).
pub const SITE_READ_STALL: &str = "read_stall";
/// Site: the server drops the connection instead of writing the response
/// (worker and inline answers alike).
pub const SITE_WRITE_DROP: &str = "write_drop";
/// Site: the server writes a truncated response, then drops the connection.
pub const SITE_WRITE_TRUNCATE: &str = "write_truncate";
/// Site: a `disturb` repair step is forced to fail (engine hook).
pub const SITE_REPAIR_FAIL: &str = "repair_fail";
/// Site: a regeneration/heal step is forced to fail (engine hook).
pub const SITE_REGEN_FAIL: &str = "regen_fail";

/// Every site name a spec may mention, for parse-time typo rejection.
pub const ALL_SITES: &[&str] = &[
    SITE_WORKER_PANIC,
    SITE_CONN_DROP,
    SITE_READ_STALL,
    SITE_WRITE_DROP,
    SITE_WRITE_TRUNCATE,
    SITE_REPAIR_FAIL,
    SITE_REGEN_FAIL,
];

#[derive(Debug)]
struct SiteState {
    /// Probability a hit fires, in `[0, 1]`.
    probability: f64,
    /// Hard cap on lifetime firings (`None` = unlimited).
    limit: Option<usize>,
    /// Per-site RNG: seeded from `(plan seed, site name)`, so one site's
    /// draw sequence is independent of which other sites exist or fire.
    rng: Mutex<Rng>,
    /// Lifetime hits (queries) at this site.
    hits: AtomicUsize,
    /// Lifetime firings at this site.
    fired: AtomicUsize,
}

/// A deterministic fault schedule over named sites. Cheap to share
/// (`Arc<FaultPlan>`); the empty plan answers every query lock-free.
#[derive(Debug, Default)]
pub struct FaultPlan {
    sites: BTreeMap<&'static str, SiteState>,
}

impl FaultPlan {
    /// The empty plan: no site ever fires.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Parses a spec like `worker_panic=1@2,conn_drop=0.1` with a seed that
    /// fixes every probabilistic draw. Unknown sites, bad probabilities, and
    /// malformed clauses are errors — a typo'd fault plan that silently
    /// never fires would defeat the whole harness.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut sites = BTreeMap::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (name, rule) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not site=probability"))?;
            let name = name.trim();
            let site = *ALL_SITES
                .iter()
                .find(|&&s| s == name)
                .ok_or_else(|| format!("unknown fault site `{name}`"))?;
            let (prob_str, limit) = match rule.split_once('@') {
                Some((p, l)) => {
                    let limit: usize = l
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault limit `{l}` is not a count"))?;
                    (p.trim(), Some(limit))
                }
                None => (rule.trim(), None),
            };
            let probability: f64 = prob_str
                .parse()
                .map_err(|_| format!("fault probability `{prob_str}` is not a number"))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!("fault probability {probability} outside [0, 1]"));
            }
            let prior = sites.insert(
                site,
                SiteState {
                    probability,
                    limit,
                    rng: Mutex::new(Rng::seed_from_u64(seed ^ site_salt(site))),
                    hits: AtomicUsize::new(0),
                    fired: AtomicUsize::new(0),
                },
            );
            if prior.is_some() {
                return Err(format!("fault site `{site}` specified twice"));
            }
        }
        Ok(FaultPlan { sites })
    }

    /// Builds a plan from `RCW_FAULT_PLAN` / `RCW_FAULT_SEED`. An unset or
    /// empty plan variable yields the empty plan; a malformed one is an
    /// error (see [`FaultPlan::parse`]).
    pub fn from_env() -> Result<Self, String> {
        let spec = match std::env::var("RCW_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => spec,
            _ => return Ok(FaultPlan::none()),
        };
        let seed = match std::env::var("RCW_FAULT_SEED") {
            Ok(s) => s
                .trim()
                .parse()
                .map_err(|_| format!("RCW_FAULT_SEED `{s}` is not a u64"))?,
            Err(_) => 0,
        };
        FaultPlan::parse(&spec, seed)
    }

    /// Whether any site is configured at all. The serving hot path checks
    /// this once and skips per-site queries entirely for the empty plan.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// One hit at `site`: returns whether the fault fires. Unconfigured
    /// sites never fire and cost one map lookup. Probability-1 rules skip
    /// the RNG so their firing count depends only on hit order pressure
    /// against the limit, never on draw interleaving.
    pub fn fires(&self, site: &str) -> bool {
        let Some(state) = self.sites.get(site) else {
            return false;
        };
        state.hits.fetch_add(1, Ordering::Relaxed);
        let wants = if state.probability >= 1.0 {
            true
        } else if state.probability <= 0.0 {
            false
        } else {
            let mut rng = state.rng.lock().unwrap_or_else(|e| e.into_inner());
            rng.gen_bool(state.probability)
        };
        if !wants {
            return false;
        }
        match state.limit {
            None => {
                state.fired.fetch_add(1, Ordering::Relaxed);
                true
            }
            // Claim a firing slot atomically: under a limit, exactly `limit`
            // hits fire across all threads, never more.
            Some(limit) => state
                .fired
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < limit).then_some(n + 1)
                })
                .is_ok(),
        }
    }

    /// Lifetime firings at `site` (0 for unconfigured sites).
    pub fn fired(&self, site: &str) -> usize {
        self.sites
            .get(site)
            .map_or(0, |s| s.fired.load(Ordering::Relaxed))
    }

    /// Lifetime hits at `site` (0 for unconfigured sites).
    pub fn hits(&self, site: &str) -> usize {
        self.sites
            .get(site)
            .map_or(0, |s| s.hits.load(Ordering::Relaxed))
    }

    /// Bridges this plan into the engine's fault hook: the engine's
    /// `repair`/`regen` sites map to this plan's `repair_fail`/`regen_fail`.
    /// Install with `WitnessEngine::with_fault_hook`.
    pub fn engine_hook(self: &Arc<Self>) -> EngineFaultHook {
        let plan = Arc::clone(self);
        Arc::new(move |site: &str| match site {
            FAULT_SITE_REPAIR => plan.fires(SITE_REPAIR_FAIL),
            FAULT_SITE_REGEN => plan.fires(SITE_REGEN_FAIL),
            _ => false,
        })
    }
}

/// Stable per-site seed salt (FNV-1a), so each site draws an independent
/// stream from the same plan seed.
fn site_salt(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for &site in ALL_SITES {
            assert!(!plan.fires(site));
            assert_eq!(plan.fired(site), 0);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("worker_panic", 0).is_err());
        assert!(FaultPlan::parse("no_such_site=1", 0).is_err());
        assert!(FaultPlan::parse("worker_panic=2.0", 0).is_err());
        assert!(FaultPlan::parse("worker_panic=-0.5", 0).is_err());
        assert!(FaultPlan::parse("worker_panic=1@x", 0).is_err());
        assert!(FaultPlan::parse("worker_panic=1,worker_panic=0.5", 0).is_err());
        assert!(FaultPlan::parse("worker_panic=nope", 0).is_err());
    }

    #[test]
    fn probability_one_with_limit_fires_exactly_n_times() {
        let plan = FaultPlan::parse("worker_panic=1@3", 7).unwrap();
        let fired: usize = (0..10).filter(|_| plan.fires(SITE_WORKER_PANIC)).count();
        assert_eq!(fired, 3);
        assert_eq!(plan.fired(SITE_WORKER_PANIC), 3);
        assert_eq!(plan.hits(SITE_WORKER_PANIC), 10);
    }

    #[test]
    fn limit_is_exact_under_concurrency() {
        let plan = Arc::new(FaultPlan::parse("conn_drop=1@5", 0).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let plan = Arc::clone(&plan);
                scope.spawn(move || {
                    for _ in 0..25 {
                        plan.fires(SITE_CONN_DROP);
                    }
                });
            }
        });
        assert_eq!(plan.fired(SITE_CONN_DROP), 5);
        assert_eq!(plan.hits(SITE_CONN_DROP), 100);
    }

    #[test]
    fn probabilistic_sites_are_seed_deterministic() {
        let a = FaultPlan::parse("write_drop=0.3,read_stall=0.7", 42).unwrap();
        let b = FaultPlan::parse("write_drop=0.3,read_stall=0.7", 42).unwrap();
        let seq_a: Vec<bool> = (0..64).map(|_| a.fires(SITE_WRITE_DROP)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.fires(SITE_WRITE_DROP)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f) && seq_a.iter().any(|&f| !f));
        // another seed gives another schedule
        let c = FaultPlan::parse("write_drop=0.3", 43).unwrap();
        let seq_c: Vec<bool> = (0..64).map(|_| c.fires(SITE_WRITE_DROP)).collect();
        assert_ne!(seq_a, seq_c);
        // sites draw independent streams: consuming one leaves the other's
        // schedule untouched (b never drew from read_stall above)
        let d = FaultPlan::parse("write_drop=0.3,read_stall=0.7", 42).unwrap();
        for _ in 0..10 {
            d.fires(SITE_WRITE_DROP);
        }
        let stall_b: Vec<bool> = (0..32).map(|_| b.fires(SITE_READ_STALL)).collect();
        let stall_d: Vec<bool> = (0..32).map(|_| d.fires(SITE_READ_STALL)).collect();
        assert_eq!(stall_b, stall_d);
    }

    #[test]
    fn engine_hook_maps_core_sites() {
        let plan = Arc::new(FaultPlan::parse("repair_fail=1@1,regen_fail=1", 0).unwrap());
        let hook = plan.engine_hook();
        assert!(hook(FAULT_SITE_REPAIR));
        assert!(!hook(FAULT_SITE_REPAIR), "limit exhausted");
        assert!(hook(FAULT_SITE_REGEN));
        assert!(hook(FAULT_SITE_REGEN));
        assert!(!hook("unknown-site"));
        assert_eq!(plan.fired(SITE_REPAIR_FAIL), 1);
        assert_eq!(plan.fired(SITE_REGEN_FAIL), 2);
    }

    #[test]
    fn from_env_defaults_to_empty() {
        // Runs without RCW_FAULT_PLAN set in the test environment; if a
        // parallel test ever sets it process-wide, this would need isolation.
        if std::env::var("RCW_FAULT_PLAN").is_err() {
            assert!(FaultPlan::from_env().unwrap().is_empty());
        }
    }
}
