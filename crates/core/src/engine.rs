//! The long-lived, session-oriented witness engine.
//!
//! The paper's workloads are many-query: RoboGExp explains *sets* of test
//! nodes against one fixed classifier, and its GED experiment shows witnesses
//! barely move when the graph is disturbed. [`WitnessEngine`] exploits both
//! by separating three tiers of state:
//!
//! 1. **Engine-lifetime** shared immutable state ([`EngineCaches`] plus the
//!    `Arc`'d host graph with its cached CSR): the edge-cut partition, k-hop
//!    candidate neighborhoods, and PPR rows, built once and reused by every
//!    query. (APPNP's local logits live with the model itself, keyed by the
//!    graph's feature epoch.)
//! 2. **Per-query** state: localities, candidate pools, and verification
//!    scratch, owned by the per-query session runs — repeated
//!    [`WitnessEngine::generate`] calls pay only query-proportional work.
//! 3. **Mutation epochs**: [`WitnessEngine::disturb`] applies edge flips to
//!    the host graph (copy-on-write through the `Arc`), advances the graph's
//!    epoch, invalidates only the cache entries whose k-hop footprint
//!    intersects the disturbed region, and *repairs* the stored witnesses —
//!    re-verifying each under the new graph and re-entering the search,
//!    seeded from the old witness, only for queries whose witness fails.
//!
//! The paper-facing drivers [`crate::RoboGExp`] / [`crate::ParaRoboGExp`]
//! are thin wrappers running the same session code over a private cache
//! instance they keep across calls.

use crate::config::RcwConfig;
use crate::generate::{GenerationResult, GenerationStats};
use crate::model::VerifiableModel;
use crate::session;
use crate::session::{BudgetExceeded, SessionBudget};
use crate::witness::{Witness, WitnessLevel};
use rcw_gnn::{GnnModel, KernelScratch};
use rcw_graph::{
    disturbance_footprint, edge_cut_partition, traversal::k_hop_neighborhood_multi, Disturbance,
    Graph, GraphView, NodeId, Partition,
};
use rcw_pagerank::PprCache;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::{Duration, Instant};

/// Bound on distinct test-node sets the neighborhood cache remembers before
/// it resets — a backstop against unbounded growth under adversarial query
/// streams, far above any benchmark's working set.
const HOOD_CACHE_CAP: usize = 1024;

/// Bound on stored witnesses before the store resets. Every stored witness
/// costs memory *and* repair work on each `disturb` sweep, so a long-lived
/// engine under an unbounded stream of distinct test sets needs the same
/// backstop as the neighborhood cache (evicted queries simply go cold).
const WITNESS_STORE_CAP: usize = 4096;

/// Cache key for a k-hop neighborhood: `(hops, sorted deduped test nodes)`.
type HoodKey = (usize, Vec<NodeId>);
/// Cached neighborhood: the epoch it was computed at plus the node set.
type HoodEntry = (u64, Arc<BTreeSet<NodeId>>);

#[derive(Debug, Default)]
struct HoodCache {
    entries: BTreeMap<HoodKey, HoodEntry>,
    hits: usize,
    misses: usize,
}

#[derive(Debug)]
struct PartitionEntry {
    epoch: u64,
    parts: usize,
    hops: usize,
    partition: Arc<Partition>,
}

/// The engine-lifetime shared immutable tier: every cache is keyed by a graph
/// epoch, interior-mutable, and safe to share across worker threads. Every
/// verification runs over one ([`VerifiableModel::verify_rcw`]); a fresh
/// instance gives the same verdicts as a warm one. [`crate::RoboGExp`] and
/// [`crate::ParaRoboGExp`] each own a private instance and reuse it across
/// calls; the [`WitnessEngine`] keeps one alive across queries and
/// disturbances.
#[derive(Debug)]
pub struct EngineCaches {
    ppr: PprCache,
    hoods: Mutex<HoodCache>,
    partition: Mutex<Option<PartitionEntry>>,
}

impl EngineCaches {
    /// Creates an empty cache set sized from the configuration.
    pub fn new(cfg: &RcwConfig) -> Self {
        EngineCaches {
            ppr: PprCache::new(crate::verify::PRUNE_ALPHA, cfg.ppr_iters),
            hoods: Mutex::new(HoodCache::default()),
            partition: Mutex::new(None),
        }
    }

    /// The shared PPR-row cache (candidate-pair pruning).
    pub fn ppr(&self) -> &PprCache {
        &self.ppr
    }

    /// The k-hop neighborhood of `test_nodes`, cached across expand–verify
    /// rounds and across calls, keyed by the graph's mutation epoch.
    pub fn hood(&self, graph: &Graph, test_nodes: &[NodeId], hops: usize) -> Arc<BTreeSet<NodeId>> {
        let mut key_nodes = test_nodes.to_vec();
        key_nodes.sort_unstable();
        key_nodes.dedup();
        let key = (hops, key_nodes);
        let epoch = graph.epoch();
        {
            let mut cache = lock_recover(&self.hoods);
            if let Some(hood) = cache
                .entries
                .get(&key)
                .filter(|(e, _)| *e == epoch)
                .map(|(_, hood)| Arc::clone(hood))
            {
                cache.hits += 1;
                return hood;
            }
            cache.misses += 1;
        }
        // BFS outside the lock: parallel workers missing on distinct keys
        // must not serialize behind each other (a concurrent duplicate
        // compute of the same key is rare and harmless — last writer wins,
        // both compute identical sets).
        let hood = Arc::new(k_hop_neighborhood_multi(graph, test_nodes, hops));
        let mut cache = lock_recover(&self.hoods);
        if cache.entries.len() >= HOOD_CACHE_CAP {
            cache.entries.clear();
        }
        // Never replace a newer entry: a query still running on an old graph
        // snapshot may land here after a disturbance already advanced the
        // cache (epochs are process-wide monotone, so "newer" is just ">").
        match cache.entries.get(&key) {
            Some((e, _)) if *e > epoch => {}
            _ => {
                cache.entries.insert(key, (epoch, Arc::clone(&hood)));
            }
        }
        hood
    }

    /// Lifetime `(hits, misses)` of the neighborhood cache.
    pub fn hood_stats(&self) -> (usize, usize) {
        let cache = lock_recover(&self.hoods);
        (cache.hits, cache.misses)
    }

    /// The inference-preserving edge-cut partition, cached across calls and
    /// repaired (not rebuilt) after disturbances when possible.
    pub fn partition(&self, graph: &Graph, parts: usize, hops: usize) -> Arc<Partition> {
        let mut slot = lock_recover(&self.partition);
        if let Some(entry) = slot.as_ref() {
            if entry.epoch == graph.epoch() && entry.parts == parts && entry.hops == hops {
                return Arc::clone(&entry.partition);
            }
        }
        let partition = Arc::new(edge_cut_partition(graph, parts, hops));
        // As with the hood cache, a query on an old graph snapshot must not
        // clobber a newer entry installed by a concurrent disturbance.
        if !matches!(slot.as_ref(), Some(entry) if entry.epoch > graph.epoch()) {
            *slot = Some(PartitionEntry {
                epoch: graph.epoch(),
                parts,
                hops,
                partition: Arc::clone(&partition),
            });
        }
        partition
    }

    /// Epoch-advance after a disturbance: retains every cache entry whose
    /// k-hop footprint is disjoint from the disturbed region and repairs the
    /// partition's border replication in place. `graph` is the
    /// post-disturbance graph, `old_epoch` the epoch the disturbance was
    /// applied against, `touched` the flipped pairs' endpoints, `footprint`
    /// their `hops`-hop ball.
    ///
    /// Only entries recorded at exactly `old_epoch` are eligible for
    /// retention: the footprint argument proves "unchanged across *this*
    /// disturbance", which re-validates the immediately preceding epoch and
    /// nothing else. An entry at any other epoch (e.g. inserted by a query
    /// that raced this disturbance on an older graph snapshot) is dropped
    /// rather than promoted.
    pub fn apply_disturbance(
        &self,
        graph: &Graph,
        old_epoch: u64,
        touched: &BTreeSet<NodeId>,
        footprint: &BTreeSet<NodeId>,
    ) {
        let epoch = graph.epoch();
        self.ppr.advance_epoch(epoch, footprint);
        {
            let mut cache = lock_recover(&self.hoods);
            cache.entries.retain(|_, (e, hood)| {
                if *e != old_epoch || hood.iter().any(|n| footprint.contains(n)) {
                    false
                } else {
                    *e = epoch;
                    true
                }
            });
        }
        {
            let mut slot = lock_recover(&self.partition);
            if let Some(entry) = slot.as_mut() {
                if entry.epoch != old_epoch {
                    *slot = None; // stale stray from a racing query: rebuild lazily
                } else {
                    let repaired = Arc::make_mut(&mut entry.partition)
                        .refresh_after_disturbance(graph, touched, entry.hops);
                    match repaired {
                        Some(_) => entry.epoch = epoch,
                        None => *slot = None, // node set changed: rebuild lazily
                    }
                }
            }
        }
        // APPNP's local logits live with the model, keyed by the feature
        // epoch, which edge flips never advance: nothing to invalidate.
    }
}

/// A witness the engine keeps for repair, tagged with the epoch it was last
/// verified at.
#[derive(Clone, Debug)]
pub struct StoredWitness {
    /// The witness itself.
    pub witness: Witness,
    /// The strongest level it verified at.
    pub level: WitnessLevel,
    /// The graph epoch the level was established under.
    pub epoch: u64,
    /// Degraded-mode marker: after a disturbance, repair *and* the
    /// regeneration fallback both failed for this entry, so the witness (and
    /// its `level`) describe the pre-disturbance graph. The engine serves it
    /// tagged `stale` rather than erroring, and tries to heal it on each
    /// subsequent query.
    pub stale: bool,
}

impl StoredWitness {
    /// Servable as a warm hit at `epoch`: verified under it and not degraded.
    fn fresh_at(&self, epoch: u64) -> bool {
        self.epoch == epoch && !self.stale
    }
}

/// A cooperative fault-injection hook for the engine's repair and
/// regeneration sites.
///
/// The hook is called with a *site name* (`"repair"` when a disturbance is
/// about to repair a stored witness, `"regen"` when the engine is about to
/// regenerate one from scratch — during a `disturb` fallback or while
/// healing a stale entry on a query). Returning `true` forces that step to
/// fail, driving the engine down its degradation chain
/// (repair → regeneration → serve-stale) exactly as a genuine failure
/// would. Production engines leave the hook unset; the fault-injection
/// harness (`rcw_server::faults::FaultPlan::engine_hook`) installs one.
pub type EngineFaultHook = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// Named hook site: a disturbance repairing a stored witness.
pub const FAULT_SITE_REPAIR: &str = "repair";
/// Named hook site: regenerating a witness from scratch (disturb fallback
/// and query-time healing of stale entries).
pub const FAULT_SITE_REGEN: &str = "regen";

/// A coherent point-in-time picture of a live engine, taken under the store
/// lock: counters, store occupancy, and cache epochs together. This is the
/// payload a serving layer exposes on its stats endpoint.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// Engine-lifetime counters at snapshot time.
    pub stats: EngineStats,
    /// Witnesses currently stored.
    pub stored: usize,
    /// The host graph's mutation epoch.
    pub epoch: u64,
    /// The host graph's feature epoch (APPNP logit cache key).
    pub feature_epoch: u64,
    /// Lifetime hits of the k-hop neighborhood cache.
    pub hood_hits: usize,
    /// Lifetime misses of the k-hop neighborhood cache.
    pub hood_misses: usize,
    /// Workers per query.
    pub workers: usize,
}

/// Engine-lifetime counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `generate` calls answered.
    pub queries: usize,
    /// Queries answered from the witness store without any search.
    pub warm_hits: usize,
    /// Queries that ran a (possibly seeded) expand–verify session.
    pub sessions_run: usize,
    /// Disturbance pairs applied to the host graph.
    pub flips_applied: usize,
    /// Stored witnesses untouched by a disturbance (footprint-disjoint).
    pub repairs_skipped: usize,
    /// Stored witnesses repaired by re-verification alone.
    pub repairs_reverified: usize,
    /// Stored witnesses repaired through a seeded search.
    pub repairs_searched: usize,
    /// Stored witnesses rebuilt from scratch because the seeded repair
    /// failed (panicked, tripped the repair budget, or was fault-forced).
    pub repairs_regenerated: usize,
    /// Stored witnesses left stale because repair *and* regeneration failed;
    /// they are served tagged `stale: true` until a later query heals them.
    pub repairs_degraded: usize,
    /// Queries answered with a stale (degraded) witness because healing it
    /// was not possible within the request's budget.
    pub degraded_serves: usize,
    /// Queries aborted (nothing stored, nothing served) because their
    /// [`SessionBudget`] expired.
    pub budget_aborts: usize,
}

/// How one stored witness fared in a [`WitnessEngine::disturb`] sweep.
/// Entries the disturbance could not reach are not reported per-entry (they
/// appear only in the summary's `untouched` count): a subscription layer owes
/// updates exactly for the entries whose region the disturbance touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The stored witness re-verified at (at least) its old level.
    Reverified,
    /// The stored witness was repaired through a seeded search.
    Repaired,
    /// The stored witness was rebuilt from scratch.
    Regenerated,
    /// Repair and regeneration both failed: the entry is served stale.
    Degraded,
}

impl RepairOutcome {
    /// Stable wire name of the outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            RepairOutcome::Reverified => "reverified",
            RepairOutcome::Repaired => "repaired",
            RepairOutcome::Regenerated => "regenerated",
            RepairOutcome::Degraded => "degraded",
        }
    }
}

/// Per-entry outcome of a [`WitnessEngine::disturb`] sweep, carrying the
/// exact result a warm [`WitnessEngine::generate`] for `test_nodes` returns
/// at the post-sweep epoch. It is built inside the sweep, under the store
/// lock, so a subscription layer can push it without racing a later
/// disturbance — bit-exactness with a fresh query is by construction.
#[derive(Clone, Debug)]
pub struct EntryRepair {
    /// The canonical (sorted, deduplicated) store key of the entry.
    pub test_nodes: Vec<NodeId>,
    /// How the sweep handled the entry.
    pub outcome: RepairOutcome,
    /// What a warm `generate(&test_nodes)` at the post-sweep epoch returns
    /// (for [`RepairOutcome::Degraded`]: what a failed heal serves — tagged
    /// `stale`, since a *successful* heal would produce a fresh witness).
    pub result: GenerationResult,
}

/// Report of one [`WitnessEngine::disturb`] call.
#[derive(Clone, Debug)]
pub struct DisturbReport {
    /// The graph epoch after the disturbance.
    pub epoch: u64,
    /// Number of pairs that actually changed state.
    pub flips_applied: usize,
    /// Size of the invalidation footprint (nodes).
    pub footprint_size: usize,
    /// Stored witnesses whose region the disturbance could not reach.
    pub untouched: usize,
    /// Stored witnesses that re-verified at (at least) their old level.
    pub reverified: usize,
    /// Stored witnesses repaired through a seeded search.
    pub repaired: usize,
    /// Stored witnesses rebuilt from scratch after the seeded repair failed.
    pub regenerated: usize,
    /// Stored witnesses left stale (degraded mode): repair and regeneration
    /// both failed; the pre-disturbance witness is served tagged `stale`.
    pub degraded: usize,
    /// Aggregate work spent on repair.
    pub stats: GenerationStats,
    /// Per-entry outcomes for every stored witness the disturbance touched
    /// (`entries.len() == reverified + repaired + regenerated + degraded`),
    /// each carrying the warm-equivalent [`GenerationResult`] at the
    /// post-sweep epoch. Not part of the report's wire encoding — the
    /// serving layer consumes them for subscription fan-out and strips them.
    pub entries: Vec<EntryRepair>,
}

/// The long-lived witness engine: load graph and model once, answer
/// `generate(test_nodes)` queries and `disturb(..)` mutations for the rest of
/// the process lifetime.
///
/// Every entry point takes `&self`: the store, the counters, and the host
/// graph sit behind their own locks, so one engine instance can be shared
/// across a serving layer's worker threads (`WitnessEngine` is `Sync`).
/// Queries snapshot the `Arc`'d graph and run lock-free; `disturb` swaps the
/// graph copy-on-write and repairs the store while holding the store lock, so
/// concurrent queries observe either the pre- or the post-disturbance state,
/// never a half-repaired one.
///
/// ```
/// use rcw_core::{RcwConfig, WitnessEngine};
/// use rcw_gnn::{Appnp, GnnModel, TrainConfig};
/// use rcw_graph::{Disturbance, Graph, GraphView};
/// use std::sync::Arc;
///
/// let mut g = Graph::new();
/// for i in 0..8 {
///     let class = usize::from(i >= 4);
///     let feats = if class == 0 { vec![1.0, 0.0] } else { vec![0.0, 1.0] };
///     g.add_labeled_node(feats, class);
/// }
/// for u in 0..4 { for v in (u + 1)..4 { g.add_edge(u, v); } }
/// for u in 4..8 { for v in (u + 1)..8 { g.add_edge(u, v); } }
/// g.add_edge(3, 4);
/// let mut appnp = Appnp::new(&[2, 8, 2], 0.2, 10, 1);
/// let nodes: Vec<usize> = (0..8).collect();
/// appnp.train(&GraphView::full(&g), &nodes, &TrainConfig::default());
///
/// let engine = WitnessEngine::new(Arc::new(g), &appnp, RcwConfig::with_budgets(1, 1));
/// let first = engine.generate(&[0]);
/// let warm = engine.generate(&[0]); // answered from the store
/// assert_eq!(first.witness, warm.witness);
/// assert_eq!(engine.stats().warm_hits, 1);
///
/// engine.disturb(&[Disturbance::from_pairs([(1, 2)])]); // repairs in place
/// let repaired = engine.generate(&[0]);
/// assert!(repaired.witness.subgraph.contains_node(0));
/// ```
pub struct WitnessEngine<'m, M: VerifiableModel + ?Sized = dyn GnnModel> {
    graph: RwLock<Arc<Graph>>,
    model: &'m M,
    cfg: RcwConfig,
    workers: usize,
    caches: EngineCaches,
    store: Mutex<BTreeMap<Vec<NodeId>, StoredWitness>>,
    stats: Mutex<EngineStats>,
    fault_hook: Option<EngineFaultHook>,
    repair_budget: Option<Duration>,
}

impl<'m, M: VerifiableModel + ?Sized> WitnessEngine<'m, M> {
    /// Creates an engine over a shared graph and a borrowed model. The host
    /// CSR is materialized eagerly; partition, neighborhoods, PPR rows, and
    /// model-side logits fill in on first use and persist across queries.
    pub fn new(graph: Arc<Graph>, model: &'m M, cfg: RcwConfig) -> Self {
        cfg.validate().expect("invalid RcwConfig");
        graph.csr(); // engine-lifetime CSR, shared by every view and worker
        let caches = EngineCaches::new(&cfg);
        WitnessEngine {
            graph: RwLock::new(graph),
            model,
            cfg,
            workers: 1,
            caches,
            store: Mutex::new(BTreeMap::new()),
            stats: Mutex::new(EngineStats::default()),
            fault_hook: None,
            repair_budget: None,
        }
    }

    /// Installs a fault-injection hook (see [`EngineFaultHook`]). The hook is
    /// consulted at the named repair/regeneration sites; returning `true`
    /// forces that step to fail, exercising the degradation chain end to end.
    pub fn with_fault_hook(mut self, hook: EngineFaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Bounds the per-witness work of a `disturb` repair sweep: both the
    /// seeded re-search and the regeneration fallback run under a
    /// [`SessionBudget`] of this duration, so one pathological witness cannot
    /// stall the sweep (and with it every queued query) indefinitely. A
    /// witness whose repair *and* regeneration both trip the budget is left
    /// stale and served degraded until a later query heals it.
    pub fn with_repair_budget(mut self, budget: Duration) -> Self {
        self.repair_budget = Some(budget);
        self
    }

    fn fault_fires(&self, site: &str) -> bool {
        self.fault_hook.as_ref().is_some_and(|hook| hook(site))
    }

    fn repair_session_budget(&self) -> SessionBudget {
        match self.repair_budget {
            Some(limit) => SessionBudget::expiring_in(limit),
            None => SessionBudget::unlimited(),
        }
    }

    /// Sets the worker count; `> 1` routes queries through the parallel
    /// session (partitioned search) and eagerly builds the partition.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        if self.workers > 1 {
            let hops = self.model.as_gnn().num_layers().max(1);
            let graph = self.graph_snapshot();
            self.caches.partition(&graph, self.workers, hops);
        }
        self
    }

    /// A snapshot of the engine's current host graph. Cheap (`Arc` clone);
    /// a concurrent [`WitnessEngine::disturb`] replaces the engine's graph
    /// but never mutates a snapshot already handed out.
    pub fn graph(&self) -> Arc<Graph> {
        self.graph_snapshot()
    }

    fn graph_snapshot(&self) -> Arc<Graph> {
        Arc::clone(&self.graph.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The configuration every query runs under.
    pub fn config(&self) -> &RcwConfig {
        &self.cfg
    }

    /// Number of workers per query.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The host graph's current mutation epoch.
    pub fn epoch(&self) -> u64 {
        self.graph_snapshot().epoch()
    }

    /// A copy of the engine-lifetime counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
            .lock()
            .expect("engine stats lock poisoned")
            .clone()
    }

    /// A coherent point-in-time picture of the engine: counters, store
    /// occupancy, epochs, and cache hit rates, taken under the store lock so
    /// a concurrent `disturb` cannot tear it.
    pub fn snapshot(&self) -> EngineSnapshot {
        let store = lock_recover(&self.store);
        let graph = self.graph_snapshot();
        let (hood_hits, hood_misses) = self.caches.hood_stats();
        EngineSnapshot {
            stats: self
                .stats
                .lock()
                .expect("engine stats lock poisoned")
                .clone(),
            stored: store.len(),
            epoch: graph.epoch(),
            feature_epoch: graph.feature_epoch(),
            hood_hits,
            hood_misses,
            workers: self.workers,
        }
    }

    /// The shared cache tier (for inspection and tests).
    pub fn caches(&self) -> &EngineCaches {
        &self.caches
    }

    /// A copy of the stored witness for a test-node set, if one exists.
    pub fn stored(&self, test_nodes: &[NodeId]) -> Option<StoredWitness> {
        self.store
            .lock()
            .expect("engine store lock poisoned")
            .get(&store_key(test_nodes))
            .cloned()
    }

    /// Number of witnesses currently stored.
    pub fn stored_count(&self) -> usize {
        lock_recover(&self.store).len()
    }

    /// Verifies a witness against the engine's current graph and model
    /// through the shared tier.
    pub fn verify(&self, witness: &Witness) -> crate::witness::VerifyOutcome {
        let graph = self.graph_snapshot();
        self.model
            .verify_rcw(&graph, witness, &self.cfg, &self.caches)
    }

    /// Generates (or returns the stored) witness for `test_nodes`.
    ///
    /// * A stored witness from the current epoch is returned from the store
    ///   (remapped to the caller's node order) — the warm steady state costs
    ///   one map lookup plus a label remap.
    /// * A stored witness from an older epoch seeds the search (repair).
    /// * Otherwise a full session runs, and the result is stored.
    pub fn generate(&self, test_nodes: &[NodeId]) -> GenerationResult {
        self.generate_with_budget(test_nodes, &SessionBudget::unlimited())
            .expect("unlimited session budget cannot expire")
    }

    /// [`WitnessEngine::generate`] under a cooperative [`SessionBudget`]:
    /// the deadline is checked on entry (so an already-expired request never
    /// touches the store) and between session phases. An aborted query
    /// leaves the store unchanged and returns [`BudgetExceeded`] — a serving
    /// layer maps it to its overload/deadline wire error. Warm store hits
    /// run regardless of how little budget remains: they cost one map
    /// lookup, which is always cheaper than re-checking the clock midway.
    pub fn generate_with_budget(
        &self,
        test_nodes: &[NodeId],
        budget: &SessionBudget,
    ) -> Result<GenerationResult, BudgetExceeded> {
        // An already-expired budget is rejected before anything is counted:
        // the request never reached the engine proper, and the serving layer
        // accounts for it separately (`deadline_rejections`). Engine stats
        // only describe queries the engine actually processed, so the
        // conservation law (queries == warm_hits + sessions_run +
        // degraded_serves + budget_aborts) counts mid-session aborts only.
        if budget.check().is_err() {
            return Err(BudgetExceeded);
        }
        lock_recover(&self.stats).queries += 1;
        let key = store_key(test_nodes);
        // What the store probe found. Warm answers return immediately;
        // degraded entries carry their stored witness out of the lock so the
        // heal attempt (a full session) runs without blocking other queries.
        enum Probe {
            Warm(GenerationResult),
            Degraded(StoredWitness),
            Cold(Option<rcw_graph::EdgeSubgraph>),
        }
        // Graph and store are read together under the store lock so a
        // concurrent `disturb` (which holds it while swapping the graph and
        // repairing) cannot interleave a half-updated pair.
        let (graph, epoch, probe) = {
            let store = lock_recover(&self.store);
            let graph = self.graph_snapshot();
            let epoch = graph.epoch();
            let probe = match store.get(&key) {
                Some(stored) if stored.fresh_at(epoch) => {
                    lock_recover(&self.stats).warm_hits += 1;
                    Probe::Warm(warm_result(&graph, test_nodes, stored))
                }
                Some(stored) if stored.epoch == epoch => Probe::Degraded(stored.clone()),
                // Repair-on-read fallback: a stale-epoch stored witness seeds
                // the session. `disturb` eagerly re-tags or repairs every
                // stored witness, so this fires only when a query raced a
                // disturbance (it keeps `generate` correct on its own rather
                // than by `disturb`'s courtesy).
                stored => Probe::Cold(stored.map(|s| s.witness.subgraph.clone())),
            };
            (graph, epoch, probe)
        };
        // The session runs without any engine lock held: concurrent queries
        // proceed in parallel, each on its own graph snapshot.
        let result = match probe {
            Probe::Warm(result) => return Ok(result),
            Probe::Cold(seed) => {
                match self.run_session(&graph, test_nodes, seed.as_ref(), budget) {
                    Ok(result) => result,
                    Err(BudgetExceeded) => {
                        lock_recover(&self.stats).budget_aborts += 1;
                        return Err(BudgetExceeded);
                    }
                }
            }
            Probe::Degraded(stored) => {
                // Heal attempt: re-run the search under the caller's budget,
                // gated by the regen fault site and contained against panics.
                // Any failure serves the stale witness instead of erroring —
                // a degraded entry by definition already failed fresher
                // paths, and a best-effort answer beats none.
                let healed = if self.fault_fires(FAULT_SITE_REGEN) {
                    None
                } else {
                    catch_unwind(AssertUnwindSafe(|| {
                        self.run_session(&graph, test_nodes, Some(&stored.witness.subgraph), budget)
                    }))
                    .ok()
                    .and_then(Result::ok)
                };
                match healed {
                    Some(result) => result,
                    None => {
                        lock_recover(&self.stats).degraded_serves += 1;
                        return Ok(warm_result(&graph, test_nodes, &stored));
                    }
                }
            }
        };
        lock_recover(&self.stats).sessions_run += 1;
        let mut store = lock_recover(&self.store);
        if store.len() >= WITNESS_STORE_CAP && !store.contains_key(&key) {
            store.clear();
        }
        // Tagged with the epoch of the snapshot the session actually ran on:
        // if a disturbance landed meanwhile, the entry is already stale and
        // the next query repairs it.
        store.insert(
            key,
            StoredWitness {
                witness: result.witness.clone(),
                level: result.level,
                epoch,
                stale: false,
            },
        );
        Ok(result)
    }

    /// The non-blocking warm probe: `Some` of exactly what
    /// [`WitnessEngine::generate`] returns when the store holds a fresh
    /// (current-epoch, non-stale) witness for `test_nodes`, counted as one
    /// query and one warm hit as there. `None`, with nothing counted, on a
    /// miss, on a stale or degraded entry, and whenever the store lock is
    /// taken — a `disturb` holds it for its whole repair sweep — so the
    /// caller falls back to [`WitnessEngine::generate_with_budget`] instead
    /// of waiting. Graph and store are read together under the store lock,
    /// as on the blocking path.
    pub fn try_warm_hit(&self, test_nodes: &[NodeId]) -> Option<GenerationResult> {
        let store = match self.store.try_lock() {
            Ok(store) => store,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        let graph = self.graph_snapshot();
        let stored = store
            .get(&store_key(test_nodes))
            .filter(|stored| stored.fresh_at(graph.epoch()))?;
        let result = warm_result(&graph, test_nodes, stored);
        let mut stats = lock_recover(&self.stats);
        stats.queries += 1;
        stats.warm_hits += 1;
        Some(result)
    }

    /// Batched [`WitnessEngine::generate_with_budget`]: one admission pass
    /// over the whole batch under a *single* store lock, then the remaining
    /// cold/degraded queries in order through the per-request path.
    ///
    /// Pass 1 (warm pass): per query, the entry budget is checked (an
    /// already-expired query emits `Err` and is never counted, exactly like
    /// the per-request path) and the store is probed; a fresh same-epoch hit
    /// is remapped and emitted immediately, with the whole batch's
    /// `queries`/`warm_hits` counters bumped under one stats lock. Pass 2:
    /// every deferred query runs the full [`WitnessEngine::generate_with_budget`]
    /// — which re-probes the store, so an in-batch duplicate of a cold query
    /// becomes a warm hit exactly as sequential execution would.
    ///
    /// `emit(index, result)` is called exactly once per query: warm hits
    /// first (a serving layer can stream them out while the cold tail still
    /// computes), then deferred queries in batch order. Results and final
    /// engine counters are identical to issuing the queries one at a time.
    pub fn generate_batch_with(
        &self,
        queries: &[Vec<NodeId>],
        budgets: &[SessionBudget],
        emit: &mut dyn FnMut(usize, Result<GenerationResult, BudgetExceeded>),
    ) {
        assert_eq!(
            queries.len(),
            budgets.len(),
            "generate_batch_with: one budget per query"
        );
        let mut deferred: Vec<usize> = Vec::new();
        {
            // Graph and store read together under the store lock, mirroring
            // the per-request path: a concurrent `disturb` observes the whole
            // warm pass as one atomic step.
            let store = lock_recover(&self.store);
            let graph = self.graph_snapshot();
            let epoch = graph.epoch();
            let mut warm = 0usize;
            for (i, nodes) in queries.iter().enumerate() {
                if budgets[i].check().is_err() {
                    emit(i, Err(BudgetExceeded));
                    continue;
                }
                match store.get(&store_key(nodes)) {
                    Some(stored) if stored.fresh_at(epoch) => {
                        warm += 1;
                        emit(i, Ok(warm_result(&graph, nodes, stored)));
                    }
                    // Misses and degraded entries defer with *no* stats
                    // changes: pass 2's full path counts them, so duplicate
                    // queries and heal attempts account exactly as if the
                    // batch had been issued sequentially.
                    _ => deferred.push(i),
                }
            }
            if warm > 0 {
                let mut stats = lock_recover(&self.stats);
                stats.queries += warm;
                stats.warm_hits += warm;
            }
        }
        for i in deferred {
            emit(i, self.generate_with_budget(&queries[i], &budgets[i]));
        }
    }

    /// [`WitnessEngine::generate_batch_with`] under unlimited budgets,
    /// collecting results in batch order.
    pub fn generate_batch(&self, queries: &[Vec<NodeId>]) -> Vec<GenerationResult> {
        let budgets = vec![SessionBudget::unlimited(); queries.len()];
        let mut out: Vec<Option<GenerationResult>> = Vec::new();
        out.resize_with(queries.len(), || None);
        self.generate_batch_with(queries, &budgets, &mut |i, result| {
            out[i] = Some(result.expect("unlimited session budget cannot expire"));
        });
        out.into_iter()
            .map(|r| r.expect("emit called once per query"))
            .collect()
    }

    /// Applies a batch of disturbances to the host graph (copy-on-write),
    /// advances the mutation epoch, invalidates only the caches whose k-hop
    /// footprint intersects the disturbed region, and repairs every stored
    /// witness: re-verify under the new graph; only witnesses that fail
    /// re-enter the search, seeded from their old subgraph. A failed seeded
    /// search (panic, tripped repair budget, or injected fault) falls back to
    /// regeneration from scratch, and if that fails too the entry is kept
    /// stale — served tagged `stale: true` until a later query heals it —
    /// so a disturbance sweep never erases answers or takes the engine down.
    pub fn disturb(&self, disturbances: &[Disturbance]) -> DisturbReport {
        // The store lock is held for the whole call, making the graph swap +
        // repair sweep one atomic step from a query's point of view: queries
        // already past the store check finish on their pre-disturbance
        // snapshot, while new queries — warm hits included — block on the
        // store lock until the sweep completes and then see the repaired
        // store. Disturbances therefore pause the query stream for the sweep
        // duration; that latency cliff is the price of never serving a
        // half-repaired store.
        let mut store = lock_recover(&self.store);
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        let mut flips_applied = 0usize;
        let (graph, old_epoch): (Arc<Graph>, u64) = {
            let mut guard = self.graph.write().unwrap_or_else(|e| e.into_inner());
            let old_epoch = guard.epoch();
            // A valid pair (distinct, existing endpoints) always toggles, so
            // this test is exactly "will any flip apply" — and when none
            // will, the copy-on-write clone below is skipped entirely (a
            // served engine always has snapshot `Arc`s outstanding, so
            // `make_mut` would deep-copy the host graph on every no-op).
            let any_valid = disturbances.iter().any(|d| {
                d.pairs()
                    .iter()
                    .any(|(u, v)| u != v && guard.contains_node(u) && guard.contains_node(v))
            });
            if any_valid {
                // Copy-on-write: snapshots handed to in-flight queries keep
                // the old graph; the engine's slot gets the flipped clone.
                let graph = Arc::make_mut(&mut guard);
                for d in disturbances {
                    let pairs = d.pairs().to_vec();
                    flips_applied += graph.flip_edges_in_place(&pairs);
                    touched.extend(
                        d.touched_nodes()
                            .into_iter()
                            .filter(|&v| graph.contains_node(v)),
                    );
                }
            }
            (Arc::clone(&guard), old_epoch)
        };
        {
            let mut stats = lock_recover(&self.stats);
            stats.flips_applied += flips_applied;
        }
        let epoch = graph.epoch();
        if flips_applied == 0 {
            // Nothing changed structurally (all pairs invalid): the epoch did
            // not move, every cache stays live, stored witnesses stay valid.
            lock_recover(&self.stats).repairs_skipped += store.len();
            return DisturbReport {
                epoch,
                flips_applied,
                footprint_size: 0,
                untouched: store.len(),
                reverified: 0,
                repaired: 0,
                regenerated: 0,
                degraded: 0,
                stats: GenerationStats::default(),
                entries: Vec::new(),
            };
        }
        // The footprint radius covers both what the model can see (receptive
        // field) and what the verifier may flip (candidate neighborhood).
        let radius = self
            .model
            .as_gnn()
            .receptive_hops()
            .max(self.cfg.candidate_hops);
        let footprint = disturbance_footprint(&graph, disturbances, radius);
        self.caches
            .apply_disturbance(&graph, old_epoch, &touched, &footprint);

        let mut report = DisturbReport {
            epoch,
            flips_applied,
            footprint_size: footprint.len(),
            untouched: 0,
            reverified: 0,
            repaired: 0,
            regenerated: 0,
            degraded: 0,
            stats: GenerationStats::default(),
            entries: Vec::new(),
        };

        let repair_start = Instant::now();
        let keys: Vec<Vec<NodeId>> = store.keys().cloned().collect();
        for key in keys {
            let mut stored = store.remove(&key).expect("key just listed");
            // Witnesses whose candidate region the disturbance cannot reach
            // keep their verification verdict (up to the verifier's own
            // truncation): skip them entirely.
            let hood = self.caches.hood(&graph, &stored.witness.test_nodes, radius);
            let edge_touched = stored
                .witness
                .edges()
                .iter()
                .any(|(u, v)| touched.contains(&u) || touched.contains(&v));
            if !edge_touched && hood.iter().all(|n| !footprint.contains(n)) {
                // An untouched entry keeps its `stale` flag: the disturbance
                // proves nothing about a witness that already described an
                // older graph, so only a successful repair may clear it.
                stored.epoch = epoch;
                report.untouched += 1;
                lock_recover(&self.stats).repairs_skipped += 1;
                store.insert(key, stored);
                continue;
            }

            // The degradation chain: re-verify → seeded search → regenerate
            // from scratch → leave stale. The `repair` fault site fails the
            // first two steps, `regen` the third; a panic or a tripped
            // repair budget inside either search step degrades the same way
            // a forced fault does.
            let test_nodes = stored.witness.test_nodes.clone();
            let mut repaired: Option<(GenerationResult, &'static str)> = None;
            if !self.fault_fires(FAULT_SITE_REPAIR) {
                // Prune pairs the disturbance removed — the same rule the
                // seeded session applies, so re-verify and seeded re-search
                // start from the identical subgraph — and refresh the labels.
                let pruned =
                    session::seeded_subgraph(&graph, &test_nodes, Some(&stored.witness.subgraph));
                let full = GraphView::full(&graph);
                let gnn = self.model.as_gnn();
                report.stats.inference_calls += test_nodes.len();
                let labels: Vec<usize> = gnn
                    .predict_many_with(&test_nodes, &full, &mut KernelScratch::default())
                    .expect("valid node");
                let witness = Witness::new(pruned, test_nodes.clone(), labels);
                let outcome = self
                    .model
                    .verify_rcw(&graph, &witness, &self.cfg, &self.caches);
                report.stats.inference_calls += outcome.inference_calls;
                report.stats.disturbances_verified += outcome.disturbances_checked;
                if outcome.level.rank() >= stored.level.rank() {
                    stored.witness = witness;
                    stored.level = outcome.level;
                    stored.epoch = epoch;
                    stored.stale = false;
                    report.reverified += 1;
                    lock_recover(&self.stats).repairs_reverified += 1;
                    report.entries.push(EntryRepair {
                        test_nodes: key.clone(),
                        outcome: RepairOutcome::Reverified,
                        result: warm_result(&graph, &key, &stored),
                    });
                    store.insert(key, stored);
                    continue;
                }

                // The old witness no longer holds: re-enter the search seeded
                // from it, so nodes that still verify exit after a couple of
                // localized checks and only the broken parts are rebuilt.
                repaired = catch_unwind(AssertUnwindSafe(|| {
                    self.run_session(
                        &graph,
                        &test_nodes,
                        Some(&witness.subgraph),
                        &self.repair_session_budget(),
                    )
                }))
                .ok()
                .and_then(Result::ok)
                .map(|result| (result, "searched"));
            }
            if repaired.is_none() && !self.fault_fires(FAULT_SITE_REGEN) {
                // Seeded repair failed (fault-forced, panicked, or over
                // budget): rebuild from scratch — a bad seed can poison a
                // search in ways a cold start does not.
                repaired = catch_unwind(AssertUnwindSafe(|| {
                    self.run_session(&graph, &test_nodes, None, &self.repair_session_budget())
                }))
                .ok()
                .and_then(Result::ok)
                .map(|result| (result, "regenerated"));
            }
            match repaired {
                Some((result, how)) => {
                    report.stats.inference_calls += result.stats.inference_calls;
                    report.stats.disturbances_verified += result.stats.disturbances_verified;
                    report.stats.expand_rounds += result.stats.expand_rounds;
                    let outcome = if how == "searched" {
                        report.repaired += 1;
                        lock_recover(&self.stats).repairs_searched += 1;
                        RepairOutcome::Repaired
                    } else {
                        report.regenerated += 1;
                        lock_recover(&self.stats).repairs_regenerated += 1;
                        RepairOutcome::Regenerated
                    };
                    let fresh = StoredWitness {
                        witness: result.witness,
                        level: result.level,
                        epoch,
                        stale: false,
                    };
                    report.entries.push(EntryRepair {
                        test_nodes: key.clone(),
                        outcome,
                        result: warm_result(&graph, &key, &fresh),
                    });
                    store.insert(key, fresh);
                }
                None => {
                    // Degraded: every recovery path failed. Keep the old
                    // witness (it still describes the pre-disturbance graph),
                    // re-tag its epoch so warm probes find it, and mark it
                    // stale so queries serve it flagged and keep trying to
                    // heal it.
                    stored.epoch = epoch;
                    stored.stale = true;
                    report.degraded += 1;
                    lock_recover(&self.stats).repairs_degraded += 1;
                    report.entries.push(EntryRepair {
                        test_nodes: key.clone(),
                        outcome: RepairOutcome::Degraded,
                        result: warm_result(&graph, &key, &stored),
                    });
                    store.insert(key, stored);
                }
            }
        }
        report.stats.elapsed = repair_start.elapsed();
        report
    }

    fn run_session(
        &self,
        graph: &Arc<Graph>,
        test_nodes: &[NodeId],
        seed: Option<&rcw_graph::EdgeSubgraph>,
        budget: &SessionBudget,
    ) -> Result<GenerationResult, BudgetExceeded> {
        if self.workers > 1 {
            session::run_parallel(
                self.model,
                graph,
                &self.caches,
                &self.cfg,
                self.workers,
                test_nodes,
                seed,
                budget,
            )
            .map(|parallel| parallel.result)
        } else {
            session::run_sequential(
                self.model,
                graph,
                &self.caches,
                &self.cfg,
                test_nodes,
                seed,
                budget,
            )
        }
    }
}

/// The one warm answer shape: what `generate(test_nodes)` returns for
/// `stored` on `graph` — every warm hit, a degraded entry that fails to
/// heal, and the repair report's per-entry results. The witness is remapped
/// to the caller's node order (the store key is canonical, sorted and
/// deduped, but results must pair nodes and labels exactly as a cold run
/// would), nontriviality is judged against `graph`, stats are zero, and
/// `stale` is carried through.
fn warm_result(graph: &Graph, test_nodes: &[NodeId], stored: &StoredWitness) -> GenerationResult {
    let labels: Vec<usize> = test_nodes
        .iter()
        .map(|&v| {
            stored
                .witness
                .label_of(v)
                .expect("store key guarantees node membership")
        })
        .collect();
    let witness = Witness::new(stored.witness.subgraph.clone(), test_nodes.to_vec(), labels);
    let nontrivial = witness.is_nontrivial(graph);
    GenerationResult {
        witness,
        level: stored.level,
        nontrivial,
        stale: stored.stale,
        stats: GenerationStats::default(),
    }
}

/// Locks an engine mutex, recovering from poisoning. A panic inside a
/// serving-layer worker (contained by its `catch_unwind`) may have unwound
/// through one of these guards; the protected state is kept consistent by
/// epoch tags and counter arithmetic, not by unwind flags, so the engine
/// keeps serving instead of wedging every subsequent query.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Canonical store key for a test-node set: sorted, deduplicated.
fn store_key(test_nodes: &[NodeId]) -> Vec<NodeId> {
    let mut key = test_nodes.to_vec();
    key.sort_unstable();
    key.dedup();
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_gnn::{Appnp, Gcn, TrainConfig};
    use rcw_graph::generators;

    fn setup() -> (Arc<Graph>, Gcn, Appnp, Vec<NodeId>) {
        let (mut g, blocks) = generators::stochastic_block_model(&[8, 8], 0.7, 0.05, 3);
        generators::ensure_connected(&mut g, 3);
        for (v, &b) in blocks.iter().enumerate() {
            let feats = if b == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            g.set_features(v, feats);
            g.set_label(v, b);
        }
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..g.num_nodes()).collect();
        let tc = TrainConfig {
            epochs: 80,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let mut gcn = Gcn::new(&[2, 8, 2], 2);
        gcn.train(&view, &train, &tc);
        let mut appnp = Appnp::new(&[2, 6, 2], 0.2, 10, 2);
        appnp.train(&view, &train, &tc);
        let tests = vec![0, g.num_nodes() - 1];
        (Arc::new(g), gcn, appnp, tests)
    }

    fn quick_cfg() -> RcwConfig {
        RcwConfig {
            k: 1,
            local_budget: 1,
            candidate_hops: 2,
            max_expand_rounds: 2,
            sampled_disturbances: 4,
            pri_rounds: 4,
            ppr_iters: 20,
            ..RcwConfig::default()
        }
    }

    #[test]
    fn warm_queries_are_store_hits_matching_the_cold_result() {
        let (g, gcn, _appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &gcn, quick_cfg());
        let cold = engine.generate(&tests);
        let warm = engine.generate(&tests);
        assert_eq!(cold.witness, warm.witness);
        assert_eq!(cold.level, warm.level);
        assert_eq!(warm.stats.inference_calls, 0, "warm path does no inference");
        assert_eq!(engine.stats().queries, 2);
        assert_eq!(engine.stats().warm_hits, 1);
        assert_eq!(engine.stats().sessions_run, 1);
        // node order does not defeat the store, and the warm result pairs
        // nodes with labels in the *caller's* order like a cold run would
        let reordered: Vec<NodeId> = tests.iter().rev().copied().collect();
        let again = engine.generate(&reordered);
        assert_eq!(again.witness.subgraph, cold.witness.subgraph);
        assert_eq!(again.witness.test_nodes, reordered);
        for (i, &v) in reordered.iter().enumerate() {
            assert_eq!(again.witness.labels[i], cold.witness.label_of(v).unwrap());
        }
        assert_eq!(engine.stats().warm_hits, 2);
    }

    #[test]
    fn try_warm_hit_answers_only_fresh_hits_and_never_waits() {
        let (g, gcn, _appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &gcn, quick_cfg());
        assert!(engine.try_warm_hit(&tests).is_none(), "a miss is not a hit");
        assert_eq!(engine.stats().queries, 0, "a miss counts nothing");
        engine.generate(&tests);
        let reordered: Vec<NodeId> = tests.iter().rev().copied().collect();
        let hit = engine.try_warm_hit(&reordered).expect("fresh entry");
        let blocking = engine.generate(&reordered);
        assert_eq!(hit.witness, blocking.witness);
        assert_eq!(hit.level, blocking.level);
        assert_eq!(hit.nontrivial, blocking.nontrivial);
        assert!(!hit.stale);
        let stats = engine.stats();
        assert_eq!((stats.queries, stats.warm_hits), (3, 2));
        // A held store lock (a disturb's repair sweep) turns the probe away.
        let held = engine.store.lock().unwrap();
        assert!(engine.try_warm_hit(&tests).is_none());
        drop(held);
        assert_eq!(engine.stats().queries, 3);
        // A stale entry goes to the blocking path, which heals it.
        engine
            .store
            .lock()
            .unwrap()
            .values_mut()
            .for_each(|s| s.stale = true);
        assert!(engine.try_warm_hit(&tests).is_none());
        assert_eq!(engine.stats().queries, 3);
    }

    #[test]
    fn engine_matches_the_one_shot_driver() {
        let (g, gcn, _appnp, tests) = setup();
        let cfg = quick_cfg();
        let engine = WitnessEngine::new(Arc::clone(&g), &gcn, cfg.clone());
        let from_engine = engine.generate(&tests);
        let from_driver = crate::RoboGExp::for_model(&gcn, cfg).generate(&g, &tests);
        assert_eq!(from_engine.witness, from_driver.witness);
        assert_eq!(from_engine.level, from_driver.level);
    }

    #[test]
    fn disturb_applies_flips_and_repairs_the_store() {
        let (g, _gcn, appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &appnp, quick_cfg());
        let before = engine.generate(&tests);
        let epoch_before = engine.epoch();
        // flip an edge that is not protected by the witness
        let flip = g
            .edges()
            .find(|&(u, v)| !before.witness.subgraph.contains_edge(u, v))
            .expect("unprotected edge exists");
        let report = engine.disturb(&[Disturbance::from_pairs([flip])]);
        assert_eq!(report.flips_applied, 1);
        assert!(report.footprint_size > 0);
        assert_ne!(engine.epoch(), epoch_before);
        assert!(!engine.graph().has_edge(flip.0, flip.1));
        assert_eq!(
            report.untouched + report.reverified + report.repaired + report.regenerated,
            1
        );
        assert_eq!(report.degraded, 0);
        // the original Arc'd graph is untouched (copy-on-write)
        assert!(g.has_edge(flip.0, flip.1));
        // the stored witness is tagged with the new epoch: next query is warm
        let after = engine.generate(&tests);
        assert_eq!(engine.stats().warm_hits, 1);
        // and the stored witness verifies at its recorded level
        let recheck = engine.verify(&after.witness);
        assert_eq!(recheck.level, after.level);
    }

    #[test]
    fn empty_disturbance_is_a_cheap_no_op() {
        let (g, gcn, _appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &gcn, quick_cfg());
        engine.generate(&tests);
        let epoch = engine.epoch();
        let before = engine.graph();
        // all-invalid pairs (empty, self-loop, missing endpoint) must not
        // trigger the copy-on-write clone: the graph Arc stays the same
        // allocation even though `g` and `before` keep it shared
        let report = engine.disturb(&[
            Disturbance::new(),
            Disturbance::from_pairs([(1, 1), (0, 9999)]),
        ]);
        assert_eq!(report.flips_applied, 0);
        assert_eq!(report.untouched, 1);
        assert_eq!(engine.epoch(), epoch, "no flip, no epoch change");
        assert!(
            Arc::ptr_eq(&before, &engine.graph()),
            "no-op disturb must not deep-clone the host graph"
        );
        engine.generate(&tests);
        assert_eq!(engine.stats().warm_hits, 1);
    }

    #[test]
    fn caches_survive_footprint_disjoint_disturbances() {
        // a long path: disturb one end, query the other
        let mut g = Graph::with_nodes(24);
        for i in 0..23 {
            g.add_edge(i, i + 1);
        }
        for v in 0..24 {
            g.set_features(v, vec![if v < 12 { 1.0 } else { 0.0 }]);
            g.set_label(v, usize::from(v >= 12));
        }
        let view = GraphView::full(&g);
        let train: Vec<usize> = (0..24).collect();
        let mut gcn = Gcn::new(&[1, 4, 2], 1);
        gcn.train(
            &view,
            &train,
            &TrainConfig {
                epochs: 40,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        let engine = WitnessEngine::new(Arc::new(g), &gcn, quick_cfg());
        engine.generate(&[1]);
        let report = engine.disturb(&[Disturbance::from_pairs([(22, 23)])]);
        assert_eq!(report.untouched, 1, "far witness untouched");
        engine.generate(&[1]);
        assert_eq!(engine.stats().warm_hits, 1);
        // a second far disturbance reuses the surviving hood entry: the
        // repair sweep's neighborhood lookup is a hit, not a recomputation
        let (_, misses_before) = engine.caches().hood_stats();
        let report2 = engine.disturb(&[Disturbance::from_pairs([(20, 21)])]);
        assert_eq!(report2.untouched, 1);
        let (hits_after, misses_after) = engine.caches().hood_stats();
        assert_eq!(
            misses_before, misses_after,
            "hood cache survived the far disturbance"
        );
        assert!(hits_after > 0);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WitnessEngine<'static, dyn GnnModel>>();
        assert_send_sync::<WitnessEngine<'static, Gcn>>();

        let (g, gcn, _appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &gcn, quick_cfg());
        let baseline = engine.generate(&tests);
        // several threads query the same engine through &self; all observe
        // the stored witness
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let engine_ref = &engine;
                let tests_ref = &tests;
                let expected = &baseline;
                scope.spawn(move || {
                    let got = engine_ref.generate(tests_ref);
                    assert_eq!(got.witness, expected.witness);
                    assert_eq!(got.level, expected.level);
                });
            }
        });
        assert_eq!(engine.stats().warm_hits, 3);
        assert_eq!(engine.stats().queries, 4);
    }

    #[test]
    fn concurrent_queries_and_disturbances_stay_coherent() {
        let (g, _gcn, appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &appnp, quick_cfg());
        engine.generate(&tests);
        let flips: Vec<_> = g
            .edges()
            .filter(|&(u, v)| {
                let stored = engine.stored(&tests).unwrap();
                !stored.witness.subgraph.contains_edge(u, v)
            })
            .take(2)
            .collect();
        std::thread::scope(|scope| {
            let engine_ref = &engine;
            let tests_ref = &tests;
            scope.spawn(move || {
                for &flip in &flips {
                    engine_ref.disturb(&[Disturbance::from_pairs([flip])]);
                }
            });
            for _ in 0..2 {
                scope.spawn(move || {
                    for _ in 0..4 {
                        let out = engine_ref.generate(tests_ref);
                        // every answer is a witness over *some* engine epoch:
                        // it contains the test nodes and carries their labels
                        for &t in tests_ref {
                            assert!(out.witness.subgraph.contains_node(t));
                            assert!(out.witness.label_of(t).is_some());
                        }
                    }
                });
            }
        });
        // After the dust settles, one more query repairs any entry a racing
        // session tagged with a pre-disturbance epoch; the store is then
        // fresh and truthful.
        engine.generate(&tests);
        let stored = engine.stored(&tests).expect("stored witness survives");
        assert_eq!(stored.epoch, engine.epoch());
        let recheck = engine.verify(&stored.witness);
        assert_eq!(recheck.level, stored.level);
        let snap = engine.snapshot();
        assert_eq!(snap.epoch, engine.epoch());
        assert_eq!(snap.stored, 1);
        assert!(snap.stats.queries >= 9);
    }

    #[test]
    fn expired_budget_aborts_before_touching_the_store() {
        let (g, gcn, _appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &gcn, quick_cfg());
        let expired = SessionBudget::expiring_in(std::time::Duration::ZERO);
        assert!(matches!(
            engine.generate_with_budget(&tests, &expired),
            Err(BudgetExceeded)
        ));
        assert_eq!(engine.stored_count(), 0, "aborted query stores nothing");
        // the same query under an unlimited budget runs to completion, and a
        // warm hit is then answered even when the budget is already expired
        // (a store lookup is cheaper than any mid-flight clock check)
        let cold = engine
            .generate_with_budget(&tests, &SessionBudget::unlimited())
            .expect("unlimited budget");
        let warm = engine.generate(&tests);
        assert_eq!(cold.witness, warm.witness);
        assert_eq!(engine.stats().warm_hits, 1);
        // parallel sessions honor the budget too
        let par = WitnessEngine::new(Arc::clone(&g), &gcn, quick_cfg()).with_workers(2);
        assert!(matches!(
            par.generate_with_budget(&tests, &expired),
            Err(BudgetExceeded)
        ));
        // a generous deadline behaves like unlimited
        let generous = SessionBudget::expiring_in(std::time::Duration::from_secs(600));
        assert!(!generous.expired());
        let under_deadline = par
            .generate_with_budget(&tests, &generous)
            .expect("generous deadline");
        assert!(under_deadline.witness.subgraph.contains_node(tests[0]));
    }

    #[test]
    fn forced_repair_failure_regenerates_and_forced_regen_degrades() {
        let (g, _gcn, appnp, tests) = setup();
        // Hook that fails whatever sites are currently switched on.
        use std::sync::atomic::{AtomicBool, Ordering};
        let fail_repair = Arc::new(AtomicBool::new(false));
        let fail_regen = Arc::new(AtomicBool::new(false));
        let hook: EngineFaultHook = {
            let fail_repair = Arc::clone(&fail_repair);
            let fail_regen = Arc::clone(&fail_regen);
            Arc::new(move |site: &str| match site {
                FAULT_SITE_REPAIR => fail_repair.load(Ordering::SeqCst),
                FAULT_SITE_REGEN => fail_regen.load(Ordering::SeqCst),
                _ => false,
            })
        };
        let engine = WitnessEngine::new(Arc::clone(&g), &appnp, quick_cfg()).with_fault_hook(hook);
        let before = engine.generate(&tests);
        let flips: Vec<(NodeId, NodeId)> = g.edges().take(3).collect();

        // Repair forced to fail: the sweep regenerates from scratch (the
        // witness may be untouched if the flip misses its region, so accept
        // either, but never a plain repair).
        fail_repair.store(true, Ordering::SeqCst);
        let report = engine.disturb(&[Disturbance::from_pairs([flips[0]])]);
        assert_eq!(report.reverified + report.repaired, 0);
        assert_eq!(report.untouched + report.regenerated, 1);
        assert_eq!(report.degraded, 0);
        let served = engine.generate(&tests);
        assert!(!served.stale, "regenerated entries are not stale");

        // Repair *and* regeneration forced to fail: the entry goes stale and
        // queries serve it degraded.
        fail_regen.store(true, Ordering::SeqCst);
        let queries_before = engine.stats().queries;
        let report = engine.disturb(&[Disturbance::from_pairs([flips[1]])]);
        if report.degraded == 1 {
            let degraded = engine.generate(&tests);
            assert!(degraded.stale, "failed repair chain serves stale");
            assert_eq!(degraded.witness.test_nodes, tests);
            let stats = engine.stats();
            assert_eq!(stats.degraded_serves, 1);
            assert_eq!(stats.repairs_degraded, 1);
            assert!(engine.stored(&tests).expect("entry survives").stale);

            // Healing: with the faults lifted, the next query repairs the
            // entry in place and the one after is a plain warm hit.
            fail_repair.store(false, Ordering::SeqCst);
            fail_regen.store(false, Ordering::SeqCst);
            let healed = engine.generate(&tests);
            assert!(!healed.stale, "healed entries are fresh");
            assert!(!engine.stored(&tests).expect("entry survives").stale);
            let warm_before = engine.stats().warm_hits;
            let warm = engine.generate(&tests);
            assert!(!warm.stale);
            assert_eq!(engine.stats().warm_hits, warm_before + 1);
            assert_eq!(warm.witness, healed.witness);
        } else {
            // The second flip missed the witness region entirely.
            assert_eq!(report.untouched, 1);
        }

        // Conservation: every query is exactly one of warm hit, session,
        // degraded serve, or budget abort.
        let stats = engine.stats();
        assert!(stats.queries > queries_before);
        assert_eq!(
            stats.queries,
            stats.warm_hits + stats.sessions_run + stats.degraded_serves + stats.budget_aborts
        );
        assert_eq!(before.witness.test_nodes, tests);
    }

    #[test]
    fn repair_budget_zero_degrades_touched_witnesses() {
        let (g, _gcn, appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &appnp, quick_cfg())
            .with_repair_budget(Duration::ZERO);
        let before = engine.generate(&tests);
        // Flip an edge inside the witness so re-verify cannot simply succeed
        // at the stored level; with a zero repair budget both the seeded
        // search and the regeneration trip immediately.
        let inside = before.witness.edges().iter().next();
        if let Some(flip) = inside {
            let report = engine.disturb(&[Disturbance::from_pairs([flip])]);
            assert_eq!(report.untouched, 0, "witness edge flip always touches");
            if report.degraded == 1 {
                let served = engine.generate(&tests);
                assert!(served.stale);
                assert_eq!(engine.stats().degraded_serves, 1);
            } else {
                // Re-verification alone saved it (possible when the pruned
                // witness still verifies at its old level).
                assert_eq!(report.reverified, 1);
            }
        }
        let stats = engine.stats();
        assert_eq!(
            stats.queries,
            stats.warm_hits + stats.sessions_run + stats.degraded_serves + stats.budget_aborts
        );
    }

    #[test]
    fn entry_expired_budgets_are_invisible_to_stats() {
        // The serving layer counts boundary rejections (`deadline_rejections`);
        // the engine only counts queries it actually processed, so an
        // entry-expired request must leave every counter untouched and the
        // conservation law must hold trivially.
        let (g, gcn, _appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &gcn, quick_cfg());
        let expired = SessionBudget::expiring_in(Duration::ZERO);
        assert!(engine.generate_with_budget(&tests, &expired).is_err());
        let stats = engine.stats();
        assert_eq!(stats.budget_aborts, 0);
        assert_eq!(stats.queries, 0);
        assert_eq!(
            stats.queries,
            stats.warm_hits + stats.sessions_run + stats.degraded_serves + stats.budget_aborts
        );
    }

    #[test]
    fn parallel_engine_produces_verifiable_witnesses() {
        let (g, _gcn, appnp, tests) = setup();
        let engine = WitnessEngine::new(Arc::clone(&g), &appnp, quick_cfg()).with_workers(2);
        assert_eq!(engine.workers(), 2);
        let out = engine.generate(&tests);
        for &t in &tests {
            assert!(out.witness.subgraph.contains_node(t));
        }
        let recheck = engine.verify(&out.witness);
        assert_eq!(recheck.level, out.level);
        // second query is a store hit even on the parallel path
        engine.generate(&tests);
        assert_eq!(engine.stats().warm_hits, 1);
    }
}
