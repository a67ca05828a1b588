//! # rcw-server
//!
//! A std-only serving layer in front of [`rcw_core::WitnessEngine`]:
//! hand-rolled HTTP/1.1 over `std::net::TcpListener`, a readiness-driven
//! event loop that answers warm `/generate` hits itself, a FIFO admission
//! queue in front of a worker pool for everything else, and a line-oriented
//! JSON wire format ([`wire`]) — no external crates, matching the rest of
//! the workspace.
//!
//! All bodies ride the **v1 envelope**: every request and response object
//! carries `"v": 1`, decoders reject missing or future versions with the
//! `bad_version` error code, and every non-2xx answer is the uniform
//! `{"v": 1, "error": {"code", "detail", "retryable"}}` body (see the
//! README's "Wire protocol v1" reference).
//!
//! | endpoint | method | body | answer |
//! |---|---|---|---|
//! | `[/NAME]/generate` | POST | `{"v": 1, "nodes": [v, ...]}` | witness + level + stats |
//! | `[/NAME]/generate/batch` | POST | `{"v": 1, "queries": [[v, ...], ...]}` | `{"v": 1, "results": [...]}` |
//! | `[/NAME]/disturb` | POST | `{"v": 1, "flips": [[u, v], ...]}` | [`rcw_core::DisturbReport`] |
//! | `[/NAME]/subscribe` | POST | `{"v": 1, "nodes": [v, ...]}` | NDJSON witness-update stream |
//! | `[/NAME]/stats` | GET | — | engine snapshot(s) + server counters |
//! | `[/NAME]/healthz` | GET | — | `{"v": 1, "ok": true, "epoch": n, "engine": name}` |
//! | `/shutdown` | POST | — | `{"v": 1, "ok": true}`, then graceful stop (global only) |
//!
//! ## Subscriptions
//!
//! `POST [/NAME]/subscribe` registers the request's test-node set and turns
//! the connection into a one-way NDJSON stream: a `subscribed` frame
//! acknowledges with the current witness, then every `/disturb` whose
//! repair touches the subscribed entry pushes one `witness_update` frame —
//! bit-exact with what a fresh `/generate` at that epoch would return
//! (degraded entries carry the stale-tagged result a failed heal serves).
//! Frames queue on the connection's ordinary write path under a bounded
//! buffer ([`SUBSCRIBE_BUFFER_CAP`]); a slow consumer sheds frames rather
//! than stalling repair fan-out, and the ledger `updates_delivered +
//! updates_shed == updates_owed` is exact by construction (each owed update
//! is resolved exactly once by the event loop).
//!
//! ## Architecture
//!
//! The calling thread runs a **nonblocking event loop** over the listener
//! and every accepted socket: it accepts, reads, and parses requests
//! incrementally (one [`http::FrameBuf`] per connection), writes queued
//! response bytes as sockets drain, and never blocks on a peer.
//!
//! **Warm hits on the loop.** A `POST [/NAME]/generate` whose budget has
//! not expired and whose node set is a fresh store hit is answered by the
//! loop itself through [`ServedEngine::try_warm_hit`]: a `try_lock` probe
//! that never waits, so the answer skips both thread handoffs (loop →
//! worker → loop). Everything else goes to the workers: other endpoints,
//! malformed bodies, misses, stale or degraded entries, expired budgets,
//! and any probe that finds the store lock taken (a `/disturb` holds it for
//! its whole repair sweep). An inline answer passes the same request-level
//! fault sites as a worker answer (`conn_drop`, `worker_panic`,
//! `write_drop`, `write_truncate`) and is counted in
//! [`ServeReport::requests_inline`].
//!
//! **Workers.** The rest is queued on the **admission scheduler**, a FIFO
//! the worker pool claims from one request at a time; each push wakes one
//! worker. Long expand-verify sessions occupy a worker while warm hits keep
//! flowing on the loop.
//!
//! ## Multi-engine routing
//!
//! A server fronts a *registry* of named engines ([`ServerConfig`]): the
//! first path segment selects the engine (`/gcn/generate`,
//! `/appnp/generate`), and bare endpoints (`/generate`) route to the first
//! registered engine, so single-engine deployments and older clients keep
//! working unchanged. Each route is type-erased behind [`ServedEngine`], so
//! one process can serve engines over different model families, graphs, and
//! per-query session-worker counts.
//!
//! ## Overload behavior
//!
//! The scheduler queue is **bounded** ([`ServerConfig::queue_bound`]). A
//! request arriving while the queue is at its bound is shed with `429 Too
//! Many Requests` (body `{"error": "overloaded", ...}`) written through the
//! event loop's ordinary write path — no helper threads — and the
//! connection closes after the refusal. Each request may carry an
//! `x-rcw-deadline-ms` header (or inherit
//! [`ServerConfig::default_deadline`]); the deadline window starts when the
//! connection was accepted for its first request (queue wait counts) and at
//! arrival for later keep-alive requests (idle time is never billed). The
//! deadline is threaded into the engine as a [`SessionBudget`] — enforced
//! at the engine boundary before any session work and cooperatively between
//! session phases, so control endpoints (`/healthz`, `/stats`, `/shutdown`)
//! stay reachable under deadline pressure. Expired queries answer `503
//! Service Unavailable` with `{"error": "deadline exceeded"}`; an aborted
//! query never pollutes the witness store.
//!
//! Shutdown is graceful: accepting stops, in-flight requests finish (an
//! actively-requesting kept-alive peer gets its answer with `connection:
//! close`), the pool drains, and [`RcwServer::serve`] returns a
//! [`ServeReport`] with per-worker and inline request counts and the
//! overload/deadline totals.

pub mod client;
pub mod faults;
pub mod http;
pub mod wire;

use faults::FaultPlan;
use http::{encode_response, FrameBuf, FrameOutcome, Request, Response};
pub use rcw_core::{BudgetExceeded, SessionBudget};
use rcw_core::{
    DisturbReport, EngineSnapshot, GenerationResult, RcwConfig, VerifiableModel, WitnessEngine,
};
use rcw_graph::Disturbance;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use wire::Json;

/// Default per-socket progress timeout (the `ServerConfig::single` value of
/// [`ServerConfig::io_timeout`]): bounds how long an idle kept-alive peer
/// holds a connection slot and how long graceful shutdown can take.
const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The event loop keeps re-sweeping (yielding the core between sweeps, so
/// workers and peers on a small machine always run first) while anything
/// moved within this window, then parks on the completion channel. The
/// yield is what makes the hot window safe on a single-core box: the loop
/// only burns cycles the kernel had nothing else to schedule.
const SPIN_WINDOW: Duration = Duration::from_millis(5);

/// Park duration between sweeps when the loop has gone idle: new socket
/// readability is picked up at most this much later. A worker completion
/// interrupts the park immediately via the completion channel.
const IDLE_POLL: Duration = Duration::from_micros(500);

/// How often the event loop scans connections for idle/stall timeouts.
const TIMEOUT_SCAN_EVERY: Duration = Duration::from_millis(25);

/// How long an idle keep-alive connection keeps counting as "about to send
/// again" after its last answer was applied. While such a peer exists the
/// loop keeps sweeping instead of parking on the completion channel: a
/// closed-loop client re-sends microseconds after its answer lands, and an
/// [`IDLE_POLL`] park would cost more than the answer itself. The window
/// starts at the answer, not at the request, so a request that took longer
/// than the window still leaves its peer receptive. Short enough that a
/// client that has gone quiet stops holding the loop awake almost
/// immediately.
const RECEPTIVE_WINDOW: Duration = Duration::from_millis(5);

/// Upper bound of the injected `read_stall` fault's sleep.
const INJECTED_STALL: Duration = Duration::from_millis(250);

/// Bound on a subscription stream's unwritten backlog. A pushed frame that
/// would grow the connection's write queue past this is **shed** (counted in
/// `updates_shed`) instead of buffered: a slow or wedged consumer must not
/// grow server memory or stall disturbance fan-out.
pub const SUBSCRIBE_BUFFER_CAP: usize = 256 * 1024;

/// The session config `rcw_serve` runs every engine with, at disturbance
/// budget `k`: local budget 2, 2-hop candidate pools, 3 expand rounds, 6
/// sampled disturbances, 4 PRI rounds and 20 PPR iterations. The answer
/// fingerprint runs the same config, so the answers it pins are the served
/// ones.
pub fn serve_config(k: usize) -> RcwConfig {
    RcwConfig {
        k,
        local_budget: 2,
        candidate_hops: 2,
        max_expand_rounds: 3,
        sampled_disturbances: 6,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    }
}

/// Endpoint names, reserved so an engine route can never shadow them.
const RESERVED_ROUTE_NAMES: [&str; 6] = [
    "generate",
    "disturb",
    "subscribe",
    "stats",
    "healthz",
    "shutdown",
];

/// The engine-side interface the server routes requests to, type-erasing the
/// model parameter of [`WitnessEngine`] so one process can serve engines
/// over different model families side by side.
///
/// Implemented for every `WitnessEngine<'_, M>`; the methods mirror the
/// engine entry points a wire endpoint needs.
pub trait ServedEngine: Sync {
    /// [`WitnessEngine::generate_with_budget`]: answer a witness query under
    /// a cooperative deadline.
    fn generate_with_budget(
        &self,
        test_nodes: &[usize],
        budget: &SessionBudget,
    ) -> Result<GenerationResult, BudgetExceeded>;

    /// [`WitnessEngine::try_warm_hit`]: the fresh store hit for a query,
    /// without ever waiting on an engine lock; `None` sends the query down
    /// the blocking path.
    fn try_warm_hit(&self, test_nodes: &[usize]) -> Option<GenerationResult>;

    /// [`WitnessEngine::disturb`]: apply edge flips and repair the store.
    fn disturb(&self, disturbances: &[Disturbance]) -> DisturbReport;

    /// [`WitnessEngine::snapshot`]: a coherent stats/epoch/store picture.
    fn snapshot(&self) -> EngineSnapshot;

    /// The host graph's current mutation epoch.
    fn epoch(&self) -> u64;

    /// Number of nodes in the host graph (query validation bound).
    fn num_nodes(&self) -> usize;
}

impl<M: VerifiableModel + ?Sized> ServedEngine for WitnessEngine<'_, M> {
    fn generate_with_budget(
        &self,
        test_nodes: &[usize],
        budget: &SessionBudget,
    ) -> Result<GenerationResult, BudgetExceeded> {
        WitnessEngine::generate_with_budget(self, test_nodes, budget)
    }

    fn try_warm_hit(&self, test_nodes: &[usize]) -> Option<GenerationResult> {
        WitnessEngine::try_warm_hit(self, test_nodes)
    }

    fn disturb(&self, disturbances: &[Disturbance]) -> DisturbReport {
        WitnessEngine::disturb(self, disturbances)
    }

    fn snapshot(&self) -> EngineSnapshot {
        WitnessEngine::snapshot(self)
    }

    fn epoch(&self) -> u64 {
        WitnessEngine::epoch(self)
    }

    fn num_nodes(&self) -> usize {
        self.graph().num_nodes()
    }
}

/// One named engine behind the server: the route prefix and the engine it
/// selects.
pub struct EngineRoute<'e> {
    /// The route prefix (`/NAME/generate`). Must be non-empty, use only
    /// `[a-z0-9._-]`, be unique, and not shadow a reserved endpoint name.
    pub name: String,
    /// The engine answering this route.
    pub engine: &'e dyn ServedEngine,
}

/// Declarative description of a serving deployment: the engine registry plus
/// the transport's overload knobs. The first route is the *default* engine —
/// bare endpoints (`/generate`) without a prefix go to it.
pub struct ServerConfig<'e> {
    /// Named engines; the first is the default route.
    pub routes: Vec<EngineRoute<'e>>,
    /// Worker threads claiming from the admission scheduler (per-query
    /// parallelism is the engine's own `with_workers` setting).
    pub workers: usize,
    /// Bound of the admission queue; requests arriving beyond it are shed
    /// with `429`. Minimum 1.
    pub queue_bound: usize,
    /// Deadline applied to requests that do not carry an
    /// `x-rcw-deadline-ms` header. `None` = no default deadline.
    pub default_deadline: Option<Duration>,
    /// Per-connection progress timeout: an idle kept-alive peer is dropped
    /// after this long, a peer mid-request (or not draining its response)
    /// gets `2 × io_timeout` before a best-effort `408`/drop — the bound
    /// that stops slowloris peers from pinning connection slots forever.
    pub io_timeout: Duration,
    /// Fault-injection plan ([`FaultPlan::none`] outside chaos tests). The
    /// serve loop consults it at each named site; an empty plan is a single
    /// cheap check per request.
    pub faults: Arc<FaultPlan>,
}

impl<'e> ServerConfig<'e> {
    /// A single-engine config under the route name `default`, matching the
    /// PR 4 serving shape: 4 workers, a generous queue, no deadline.
    pub fn single(engine: &'e dyn ServedEngine) -> Self {
        ServerConfig {
            routes: vec![EngineRoute {
                name: "default".to_string(),
                engine,
            }],
            workers: 4,
            queue_bound: 1024,
            default_deadline: None,
            io_timeout: IDLE_READ_TIMEOUT,
            faults: Arc::new(FaultPlan::none()),
        }
    }

    /// Adds a named engine route (builder style).
    pub fn with_route(mut self, name: impl Into<String>, engine: &'e dyn ServedEngine) -> Self {
        self.routes.push(EngineRoute {
            name: name.into(),
            engine,
        });
        self
    }

    /// Sets the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission-queue bound.
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound;
        self
    }

    /// Sets the default per-request deadline.
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Sets the per-connection progress timeout.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Index of the route with the given name.
    fn route_index(&self, name: &str) -> Option<usize> {
        self.routes.iter().position(|r| r.name == name)
    }

    /// Checks the config is servable: at least one route, well-formed unique
    /// names that do not shadow endpoint names, sane pool/queue sizes.
    pub fn validate(&self) -> Result<(), String> {
        if self.routes.is_empty() {
            return Err("server config needs at least one engine route".to_string());
        }
        if self.workers == 0 {
            return Err("worker pool must have at least one thread".to_string());
        }
        if self.queue_bound == 0 {
            return Err("dispatch queue bound must be at least 1".to_string());
        }
        if self.io_timeout.is_zero() {
            return Err("io timeout must be nonzero".to_string());
        }
        for (i, route) in self.routes.iter().enumerate() {
            if route.name.is_empty()
                || !route
                    .name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c))
            {
                return Err(format!(
                    "route name '{}' must be non-empty [a-z0-9._-]",
                    route.name
                ));
            }
            if RESERVED_ROUTE_NAMES.contains(&route.name.as_str()) {
                return Err(format!(
                    "route name '{}' shadows a reserved endpoint",
                    route.name
                ));
            }
            if self.routes[..i].iter().any(|r| r.name == route.name) {
                return Err(format!("duplicate route name '{}'", route.name));
            }
        }
        Ok(())
    }
}

/// A bound listener, ready to serve an engine registry.
pub struct RcwServer {
    listener: TcpListener,
    addr: SocketAddr,
}

/// What a completed [`RcwServer::serve`] run did.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests answered by each worker of the pool.
    pub requests_per_worker: Vec<usize>,
    /// Warm `/generate` hits the event loop answered itself.
    pub requests_inline: usize,
    /// Connections whose first request was admitted to the scheduler (shed
    /// and garbage-only connections are not counted).
    pub connections: usize,
    /// Requests shed with `429` because the admission queue was full.
    pub overloaded: usize,
    /// Requests answered `503` because their deadline had expired (at
    /// claim or mid-session).
    pub deadline_rejections: usize,
    /// Times an injected `worker_panic` fault killed a request's
    /// connection. The pool never shrinks: a panic costs one connection,
    /// not one worker.
    pub worker_restarts: usize,
    /// Witness updates owed to subscribers: one per (subscription,
    /// touched-entry) pair per disturbance.
    pub updates_owed: u64,
    /// Owed updates queued onto a live stream within the buffer cap.
    pub updates_delivered: u64,
    /// Owed updates dropped (stream gone or slow-consumer cap). The ledger
    /// `updates_delivered + updates_shed == updates_owed` is exact.
    pub updates_shed: u64,
}

impl ServeReport {
    /// Total requests answered, by the pool and inline (shed requests
    /// excluded).
    pub fn requests_total(&self) -> usize {
        self.requests_per_worker.iter().sum::<usize>() + self.requests_inline
    }
}

/// One admitted request waiting in the scheduler.
struct PendingItem {
    /// Event-loop connection slot the response must go back to.
    conn_id: usize,
    request: Request,
    /// When the event loop admitted the request: `admission_wait_us` is
    /// measured from here.
    admitted_at: Instant,
    /// Base of the request's deadline window: accept time for a
    /// connection's first request (queue wait counts), arrival time for
    /// later keep-alive requests (idle time is never billed).
    deadline_base: Instant,
}

/// The admission scheduler: a FIFO of admitted requests that workers claim
/// one at a time.
struct Scheduler {
    queue: Mutex<VecDeque<PendingItem>>,
    available: Condvar,
    closed: AtomicBool,
}

fn lock_queue(queue: &Mutex<VecDeque<PendingItem>>) -> MutexGuard<'_, VecDeque<PendingItem>> {
    queue.lock().unwrap_or_else(|e| e.into_inner())
}

impl Scheduler {
    fn new() -> Self {
        Scheduler {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Appends one item and wakes a worker for it.
    fn push(&self, item: PendingItem) {
        lock_queue(&self.queue).push_back(item);
        self.available.notify_one();
    }

    /// Drains remaining claims, then unblocks every waiting worker for exit.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Claims the queue head. Returns `None` once the scheduler is closed
    /// and drained.
    fn claim(&self) -> Option<PendingItem> {
        let mut queue = lock_queue(&self.queue);
        loop {
            if let Some(item) = queue.pop_front() {
                return Some(item);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .available
                .wait_timeout(queue, Duration::from_millis(20))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// What a worker hands back to the event loop for one request.
enum Completion {
    /// Write these bytes to the connection, then keep or close it.
    Respond {
        conn_id: usize,
        bytes: Vec<u8>,
        close: bool,
    },
    /// Drop the connection without a response (injected faults).
    Kill { conn_id: usize },
    /// Open a subscription stream on the connection: write the response
    /// head + `subscribed` frame and hold the connection as a one-way
    /// NDJSON stream addressed by `subscription`.
    Stream {
        conn_id: usize,
        subscription: u64,
        bytes: Vec<u8>,
    },
    /// Append one `witness_update` frame to the stream's write queue. The
    /// loop resolves each push exactly once: delivered (queued within
    /// [`SUBSCRIBE_BUFFER_CAP`]) or shed (stream gone / buffer full) — the
    /// resolution side of the `owed == delivered + shed` ledger.
    Push { subscription: u64, bytes: Vec<u8> },
}

/// One live subscription: which engine's store key it watches. Kept in
/// [`ServeState`] so disturb fan-out (worker side) can match repair entries
/// without touching event-loop state.
struct SubEntry {
    id: u64,
    engine_idx: usize,
    /// Canonical store key (sorted, deduped) — matches
    /// [`rcw_core::EntryRepair::test_nodes`] exactly.
    key: Vec<usize>,
}

/// Shared per-serve state: the config, the counters every endpoint reports,
/// and the shutdown flag.
struct ServeState<'e, 'c> {
    config: &'c ServerConfig<'e>,
    counts: Vec<AtomicUsize>,
    shutdown: AtomicBool,
    queue_depth: AtomicUsize,
    overloaded: AtomicUsize,
    deadline_rejections: AtomicUsize,
    worker_restarts: AtomicUsize,
    /// Warm hits answered on the event loop.
    requests_inline: AtomicUsize,
    /// Worker claims and the requests they carried. A claim is one
    /// request, so the two stay equal; `/stats` keeps both for clients
    /// that read their ratio.
    batch_claims: AtomicUsize,
    batch_items: AtomicUsize,
    /// Total time worker requests sat between admission and claim.
    admission_wait_us: AtomicU64,
    /// Live subscriptions (worker-side view for disturb fan-out).
    subscriptions: Mutex<Vec<SubEntry>>,
    /// Monotone subscription-id source (ids start at 1).
    next_subscription: AtomicU64,
    /// Monotone disturbance-id source: every `/disturb` request gets one,
    /// stamped into the `witness_update` frames it triggers.
    disturb_seq: AtomicU64,
    /// Updates owed: one per (subscription, touched-entry) pair per
    /// disturbance, counted at fan-out under the registry lock.
    updates_owed: AtomicU64,
    /// Owed updates queued onto a live stream within the buffer cap.
    updates_delivered: AtomicU64,
    /// Owed updates dropped: stream gone or backlog at the cap.
    updates_shed: AtomicU64,
}

fn lock_subs<'s>(state: &'s ServeState<'_, '_>) -> MutexGuard<'s, Vec<SubEntry>> {
    state
        .subscriptions
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Retires one subscription from the fan-out registry.
fn unregister(state: &ServeState<'_, '_>, subscription: u64) {
    lock_subs(state).retain(|s| s.id != subscription);
}

impl RcwServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<RcwServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(RcwServer { listener, addr })
    }

    /// The bound address (resolves the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Single-engine convenience over [`RcwServer::serve_config`]: serves
    /// `engine` under [`ServerConfig::single`] with the given pool size.
    pub fn serve<M: VerifiableModel + ?Sized>(
        self,
        engine: &WitnessEngine<'_, M>,
        workers: usize,
    ) -> std::io::Result<ServeReport> {
        let config = ServerConfig::single(engine).with_workers(workers.max(1));
        self.serve_config(&config)
    }

    /// Serves the configured engine registry until a `POST /shutdown`
    /// arrives: the calling thread runs the event loop (accept, read,
    /// parse, write — all nonblocking — and warm `/generate` hits), workers
    /// claim the rest from the admission scheduler, and requests arriving
    /// past the queue bound are shed with `429`.
    pub fn serve_config(self, config: &ServerConfig<'_>) -> std::io::Result<ServeReport> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        self.listener.set_nonblocking(true)?;
        let workers = config.workers;
        let state = ServeState {
            config,
            counts: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            queue_depth: AtomicUsize::new(0),
            overloaded: AtomicUsize::new(0),
            deadline_rejections: AtomicUsize::new(0),
            worker_restarts: AtomicUsize::new(0),
            requests_inline: AtomicUsize::new(0),
            batch_claims: AtomicUsize::new(0),
            batch_items: AtomicUsize::new(0),
            admission_wait_us: AtomicU64::new(0),
            subscriptions: Mutex::new(Vec::new()),
            next_subscription: AtomicU64::new(0),
            disturb_seq: AtomicU64::new(0),
            updates_owed: AtomicU64::new(0),
            updates_delivered: AtomicU64::new(0),
            updates_shed: AtomicU64::new(0),
        };
        let scheduler = Scheduler::new();
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let mut connections = 0usize;

        std::thread::scope(|scope| {
            for wid in 0..workers {
                let state = &state;
                let scheduler = &scheduler;
                let done = done_tx.clone();
                scope.spawn(move || worker_loop(wid, state, scheduler, &done));
            }
            drop(done_tx);
            connections = EventLoop::new(&self.listener, &state, &scheduler).run(&done_rx);
            // Event loop done: every connection is closed. Close the
            // scheduler so workers drain the (empty) queue and exit,
            // letting the scope join.
            scheduler.close();
        });

        Ok(ServeReport {
            requests_per_worker: state
                .counts
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect(),
            requests_inline: state.requests_inline.load(Ordering::SeqCst),
            connections,
            overloaded: state.overloaded.load(Ordering::SeqCst),
            deadline_rejections: state.deadline_rejections.load(Ordering::SeqCst),
            worker_restarts: state.worker_restarts.load(Ordering::SeqCst),
            updates_owed: state.updates_owed.load(Ordering::SeqCst),
            updates_delivered: state.updates_delivered.load(Ordering::SeqCst),
            updates_shed: state.updates_shed.load(Ordering::SeqCst),
        })
    }
}

// ---------------------------------------------------------------------------
// Worker side: claim, fault sites, routing, delivery
// ---------------------------------------------------------------------------

/// One worker: claims requests until the scheduler closes.
fn worker_loop(
    wid: usize,
    state: &ServeState<'_, '_>,
    scheduler: &Scheduler,
    done: &Sender<Completion>,
) {
    let faults = &state.config.faults;
    while let Some(item) = scheduler.claim() {
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        if !faults.is_empty() && faults.fires(faults::SITE_READ_STALL) {
            // Injected fault: wedge this worker right after its claim, as a
            // slow disk or lock would — later admissions back up behind it.
            std::thread::sleep(state.config.io_timeout.min(INJECTED_STALL));
        }
        state.batch_claims.fetch_add(1, Ordering::SeqCst);
        state.batch_items.fetch_add(1, Ordering::SeqCst);
        if let Some(killed) = request_faults(item.conn_id, state) {
            let _ = done.send(killed);
            continue;
        }
        // Count before routing: every request a worker takes on is in the
        // ledger, whatever the route does with it.
        state.counts[wid].fetch_add(1, Ordering::SeqCst);
        state.admission_wait_us.fetch_add(
            item.admitted_at.elapsed().as_micros() as u64,
            Ordering::SeqCst,
        );
        serve_single(item, state, done);
    }
}

/// The request-level fault sites every answer passes, from a worker or
/// inline on the event loop, before it is counted: `Some` kills the
/// connection unanswered.
fn request_faults(conn_id: usize, state: &ServeState<'_, '_>) -> Option<Completion> {
    let faults = &state.config.faults;
    if faults.is_empty() {
        return None;
    }
    if faults.fires(faults::SITE_CONN_DROP) {
        // Injected fault: the connection dies before its request is served.
        return Some(Completion::Kill { conn_id });
    }
    if faults.fires(faults::SITE_WORKER_PANIC) {
        // A panicking handler costs the connection, never the worker; the
        // unanswered request stays out of the answered-request accounting.
        state.worker_restarts.fetch_add(1, Ordering::SeqCst);
        return Some(Completion::Kill { conn_id });
    }
    None
}

/// The deadline budget of one admitted request: its `x-rcw-deadline-ms`
/// header (or the config default) measured from `deadline_base`.
fn request_budget(
    config: &ServerConfig<'_>,
    request: &Request,
    deadline_base: Instant,
) -> SessionBudget {
    let window = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(config.default_deadline);
    // The budget is enforced at the engine boundary (the entry check of
    // `generate_with_budget` fires before any session work), not here:
    // control endpoints (`/healthz`, `/stats`, `/shutdown`) must stay
    // reachable even when every request has been queued past its deadline —
    // an operator shutting down an overloaded server is the case that
    // matters most.
    match window {
        Some(window) => SessionBudget::with_deadline(deadline_base + window),
        None => SessionBudget::unlimited(),
    }
}

/// The inline answer for a `POST [/NAME]/generate` that is a fresh store
/// hit with budget left, probed without waiting on any engine lock. `None`
/// sends the request to the worker pool: another endpoint, a body the
/// worker must answer 400, an expired budget (answered 503 and counted
/// there), a miss, a stale or degraded entry, or a store lock held by a
/// disturb.
fn inline_hit(
    state: &ServeState<'_, '_>,
    request: &Request,
    deadline_base: Instant,
) -> Option<GenerationResult> {
    let engine_idx = generate_route(state.config, request)?;
    request_budget(state.config, request, deadline_base)
        .check()
        .ok()?;
    let engine = state.config.routes[engine_idx].engine;
    let nodes = generate_nodes(request, engine.num_nodes()).ok()?;
    // A panicking probe must not take the loop down: the worker path
    // retries it under its own 500 containment.
    catch_unwind(AssertUnwindSafe(|| engine.try_warm_hit(&nodes)))
        .ok()
        .flatten()
}

/// Serves one claimed request through [`route`], intercepting `/subscribe`
/// (whose answer is a stream, not a [`Response`]).
fn serve_single(item: PendingItem, state: &ServeState<'_, '_>, done: &Sender<Completion>) {
    let budget = request_budget(state.config, &item.request, item.deadline_base);
    {
        let (engine_idx, endpoint, routed) = resolve_path(state.config, &item.request.path);
        if lookup_endpoint(&item.request.method, endpoint, routed) == Ok(Endpoint::Subscribe) {
            return serve_subscribe(item, engine_idx, state, &budget, done);
        }
    }
    // A panicking handler must not take the pool down: answer 500 and keep
    // serving (the request was already counted).
    let (response, stop_after) = match catch_unwind(AssertUnwindSafe(|| {
        route(&item.request, state, &budget, done)
    })) {
        Ok(pair) => pair,
        Err(_) => (Response::error(500, "internal error"), false),
    };
    if stop_after {
        // Graceful stop: flag the event loop before delivering, so this
        // response and every later one goes out with `connection: close`.
        state.shutdown.store(true, Ordering::SeqCst);
    }
    deliver(item, response, stop_after, state, done);
}

/// Serves one `/subscribe`: warm the engine's store for the canonical key
/// (so later disturbances repair — and therefore report — the entry),
/// register the subscription, and open the stream with a `subscribed`
/// acknowledgement frame carrying the current witness.
fn serve_subscribe(
    item: PendingItem,
    engine_idx: usize,
    state: &ServeState<'_, '_>,
    budget: &SessionBudget,
    done: &Sender<Completion>,
) {
    let engine = state.config.routes[engine_idx].engine;
    let nodes = match generate_nodes(&item.request, engine.num_nodes()) {
        Ok(nodes) => nodes,
        Err(response) => return deliver(item, response, false, state, done),
    };
    // Canonicalize to the engine's store key: fan-out matches
    // [`rcw_core::EntryRepair::test_nodes`] (always canonical) by equality.
    let mut key = nodes;
    key.sort_unstable();
    key.dedup();
    let result = match catch_unwind(AssertUnwindSafe(|| {
        engine.generate_with_budget(&key, budget)
    })) {
        Ok(Ok(result)) => result,
        Ok(Err(BudgetExceeded)) => {
            return deliver(item, budget_rejection(state), false, state, done)
        }
        Err(_) => {
            return deliver(
                item,
                Response::error(500, "internal error"),
                false,
                state,
                done,
            )
        }
    };
    let id = state.next_subscription.fetch_add(1, Ordering::SeqCst) + 1;
    lock_subs(state).push(SubEntry {
        id,
        engine_idx,
        key: key.clone(),
    });
    let frame = wire::subscribed_frame_to_body(id, engine.epoch(), &key, &result);
    let mut bytes = http::encode_stream_head();
    bytes.extend_from_slice(&http::encode_stream_frame(&frame));
    let _ = done.send(Completion::Stream {
        conn_id: item.conn_id,
        subscription: id,
        bytes,
    });
}

/// Ships one worker response back through the event loop.
fn deliver(
    item: PendingItem,
    response: Response,
    stop_after: bool,
    state: &ServeState<'_, '_>,
    done: &Sender<Completion>,
) {
    let _ = done.send(respond(
        item.conn_id,
        item.request.close,
        &response,
        stop_after,
        state,
    ));
}

/// The completion that writes `response`, from a worker or inline, after
/// the write-side fault sites.
fn respond(
    conn_id: usize,
    close_requested: bool,
    response: &Response,
    stop_after: bool,
    state: &ServeState<'_, '_>,
) -> Completion {
    let faults = &state.config.faults;
    let inject = !faults.is_empty();
    // Once shutdown is flagged (by this request or concurrently), the
    // response still goes out but the connection closes: an
    // actively-requesting kept-alive peer must not defer the drain forever.
    let close = close_requested || stop_after || state.shutdown.load(Ordering::SeqCst);
    if inject && faults.fires(faults::SITE_WRITE_DROP) {
        // Injected fault: the computed answer never hits the wire.
        return Completion::Kill { conn_id };
    }
    if inject && faults.fires(faults::SITE_WRITE_TRUNCATE) {
        // Injected fault: half a real response, then a close — what a peer
        // sees when a server dies mid-write.
        let mut bytes = encode_response(response, true);
        bytes.truncate(bytes.len() / 2);
        return Completion::Respond {
            conn_id,
            bytes,
            close: true,
        };
    }
    Completion::Respond {
        conn_id,
        bytes: encode_response(response, close),
        close,
    }
}

// ---------------------------------------------------------------------------
// Event loop: accept, read, frame, admit, write
// ---------------------------------------------------------------------------

/// One nonblocking connection in the event loop's slab.
struct Conn {
    stream: TcpStream,
    /// Incremental request framer (buffers partial reads).
    frame: FrameBuf,
    /// Pending response bytes and how much of them has been written.
    out: Vec<u8>,
    out_pos: usize,
    close_after_write: bool,
    /// A request from this connection is with the scheduler or a worker,
    /// or its inline answer awaits the end of the sweep: the loop neither
    /// reads more nor times the connection out until the completion is
    /// applied.
    busy: bool,
    /// Whether the connection has been counted (first admitted request).
    counted: bool,
    first_request: bool,
    /// Peer half-closed its write side (EOF seen).
    eof: bool,
    accepted_at: Instant,
    /// Last byte in or out — idle/stall timeouts measure from here.
    last_progress: Instant,
    /// When the currently-buffered partial request started arriving.
    frame_since: Option<Instant>,
    /// When this connection last had a request admitted or an answer
    /// applied (or was accepted): the park guard treats a recently-active
    /// idle keep-alive peer as "about to send again" (closed-loop clients
    /// re-send as soon as their response lands).
    last_active: Instant,
    /// `Some(subscription)` once a `/subscribe` opened a stream on this
    /// connection: it becomes a one-way NDJSON pipe — no further requests
    /// are read, idle timeouts don't apply (only the write-grace bound),
    /// and it lives until the peer closes or the write side wedges.
    streaming: Option<u64>,
}

impl Conn {
    /// An idle keep-alive peer that was recently active: nothing queued in
    /// or out, and its last answer was applied within [`RECEPTIVE_WINDOW`].
    /// Such a peer is expected to follow up imminently, so the loop keeps
    /// sweeping for it instead of parking.
    fn receptive(&self, now: Instant) -> bool {
        !self.busy
            && self.out_pos >= self.out.len()
            && self.frame_since.is_none()
            && !self.eof
            && now.duration_since(self.last_active) < RECEPTIVE_WINDOW
    }

    /// Queues a worker's answer on this connection: it is no longer busy,
    /// and the receptive window restarts now.
    fn answered(&mut self, bytes: Vec<u8>, close: bool, now: Instant) {
        self.busy = false;
        self.out = bytes;
        self.out_pos = 0;
        // A peer that half-closed after sending can still receive the
        // answer, but the connection is done afterwards.
        self.close_after_write = close || self.eof;
        self.last_active = now;
    }
}

/// What the timeout scan decided for one connection.
enum TimeoutAction {
    Keep,
    Drop,
    Stalled408,
}

struct EventLoop<'a, 'e, 'c> {
    listener: &'a TcpListener,
    state: &'a ServeState<'e, 'c>,
    scheduler: &'a Scheduler,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    connections: usize,
    /// Inline answers admitted during this sweep's pumps, applied once the
    /// sweep has put every connection back in its slot.
    inline: Vec<Completion>,
    /// Subscription id → connection slot, installed when a
    /// [`Completion::Stream`] is applied and removed at close. Pushes
    /// resolve through this map — never through a raw `conn_id`, which may
    /// have been reused after the stream's connection died.
    streams: std::collections::HashMap<u64, usize>,
    rdbuf: [u8; 16384],
}

/// Queues a loop-generated response (shed, framing error, stall) on the
/// connection's ordinary write path.
fn queue_response(conn: &mut Conn, response: &Response, close: bool) {
    conn.out = encode_response(response, close);
    conn.out_pos = 0;
    conn.close_after_write = close;
}

impl<'a, 'e, 'c> EventLoop<'a, 'e, 'c> {
    fn new(
        listener: &'a TcpListener,
        state: &'a ServeState<'e, 'c>,
        scheduler: &'a Scheduler,
    ) -> Self {
        EventLoop {
            listener,
            state,
            scheduler,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            connections: 0,
            inline: Vec::new(),
            streams: std::collections::HashMap::new(),
            rdbuf: [0u8; 16384],
        }
    }

    /// Runs until shutdown is flagged and every connection has drained.
    /// Returns the number of connections counted.
    fn run(mut self, done_rx: &Receiver<Completion>) -> usize {
        let mut last_activity = Instant::now();
        let mut last_scan = Instant::now();
        loop {
            let mut activity = false;
            if !self.state.shutdown.load(Ordering::SeqCst) {
                activity |= self.accept_new();
            }
            while let Ok(completion) = done_rx.try_recv() {
                self.apply(completion);
                activity = true;
            }
            for id in 0..self.conns.len() {
                activity |= self.pump(id);
            }
            // Inline answers go out in the sweep that admitted them. A
            // pipelined follow-up that one of these writes uncovers is
            // answered on the next sweep, so one eager peer cannot hold the
            // loop.
            for completion in std::mem::take(&mut self.inline) {
                self.apply(completion);
                activity = true;
            }
            if self.state.shutdown.load(Ordering::SeqCst) {
                // Streams are one-way: no final response ever closes them, so
                // graceful stop closes each one once its queued frames have
                // flushed (a peer not draining loses the write-grace race in
                // `scan_timeouts` instead).
                for id in 0..self.conns.len() {
                    let flushed = matches!(
                        self.conns[id].as_ref(),
                        Some(conn) if conn.streaming.is_some() && conn.out_pos >= conn.out.len()
                    );
                    if flushed {
                        self.close(id);
                    }
                }
                if self.live == 0 {
                    return self.connections;
                }
            }
            let now = Instant::now();
            if now.duration_since(last_scan) >= TIMEOUT_SCAN_EVERY {
                last_scan = now;
                activity |= self.scan_timeouts(now);
            }
            // When every live connection is either in-flight with a worker
            // or idle with no receptive peer behind it, re-sweeping cannot
            // find work — every next event is a worker completion. Park on
            // the completion channel outright: `yield_now` is too weak here
            // (the loop's low vruntime lets it keep preempting the very
            // worker it is waiting on). Accepts and stray bytes are picked
            // up at most IDLE_POLL later.
            let only_completions_can_wake_us = self.inline.is_empty()
                && self.live > 0
                && self.conns.iter().flatten().all(|c| {
                    c.busy
                        || (c.out_pos >= c.out.len()
                            && c.frame_since.is_none()
                            && !c.receptive(now))
                });
            if only_completions_can_wake_us {
                match done_rx.recv_timeout(IDLE_POLL) {
                    Ok(completion) => {
                        self.apply(completion);
                        last_activity = Instant::now();
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => std::thread::sleep(IDLE_POLL),
                }
            } else if activity {
                last_activity = now;
                // Hand the core to whoever the sweep made runnable (a worker
                // with a fresh claim, a peer with a response) before sweeping
                // again — on a single-core box the loop would otherwise
                // starve the very threads it just fed.
                std::thread::yield_now();
            } else if now.duration_since(last_activity) <= SPIN_WINDOW {
                // Recently hot: keep sweeping, but only on an otherwise-idle
                // core. The yield keeps socket pickup latency at sweep
                // granularity without taxing runnable threads.
                std::thread::yield_now();
            } else {
                // Nothing moved for a while: park on the completion channel
                // so an idle server stops burning CPU. Socket readability is
                // picked up on the next sweep, at most IDLE_POLL later.
                match done_rx.recv_timeout(IDLE_POLL) {
                    Ok(completion) => {
                        self.apply(completion);
                        last_activity = Instant::now();
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => std::thread::sleep(IDLE_POLL),
                }
            }
        }
    }

    /// Accepts every connection the listener has ready.
    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Request/response round trips are latency-bound small
                    // messages: without TCP_NODELAY, Nagle + the peer's
                    // delayed ACK add ~40ms per response.
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let conn = Conn {
                        stream,
                        frame: FrameBuf::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        close_after_write: false,
                        busy: false,
                        counted: false,
                        first_request: true,
                        eof: false,
                        accepted_at: now,
                        last_progress: now,
                        frame_since: None,
                        last_active: now,
                        streaming: None,
                    };
                    match self.free.pop() {
                        Some(id) => self.conns[id] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.live += 1;
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept error: retry next sweep
            }
        }
        any
    }

    /// Applies one worker completion to its connection.
    fn apply(&mut self, completion: Completion) {
        match completion {
            Completion::Respond {
                conn_id,
                bytes,
                close,
            } => {
                let Some(conn) = self.conns[conn_id].as_mut() else {
                    return;
                };
                conn.answered(bytes, close, Instant::now());
                self.pump(conn_id);
            }
            Completion::Kill { conn_id } => self.close(conn_id),
            Completion::Stream {
                conn_id,
                subscription,
                bytes,
            } => {
                let Some(conn) = self.conns[conn_id].as_mut() else {
                    // The connection died between claim and stream open:
                    // retire the registration (no updates were owed yet).
                    unregister(self.state, subscription);
                    return;
                };
                conn.busy = false;
                conn.streaming = Some(subscription);
                conn.out = bytes;
                conn.out_pos = 0;
                conn.close_after_write = false;
                self.streams.insert(subscription, conn_id);
                self.pump(conn_id);
            }
            Completion::Push {
                subscription,
                bytes,
            } => {
                // Resolve exactly once: delivered (queued under the cap) or
                // shed. A missing map entry means the stream closed after
                // fan-out counted the update — shed, keeping the ledger
                // exact.
                let queued_on = self.streams.get(&subscription).copied().filter(|&id| {
                    match self.conns[id].as_mut() {
                        Some(conn)
                            if conn.out.len() - conn.out_pos + bytes.len()
                                <= SUBSCRIBE_BUFFER_CAP =>
                        {
                            conn.out.extend_from_slice(&bytes);
                            true
                        }
                        _ => false,
                    }
                });
                match queued_on {
                    Some(id) => {
                        self.state.updates_delivered.fetch_add(1, Ordering::SeqCst);
                        self.pump(id);
                    }
                    None => {
                        self.state.updates_shed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    fn close(&mut self, id: usize) {
        if let Some(conn) = self.conns[id].take() {
            // A dying stream retires its subscription: later disturbances
            // stop owing it updates (in-flight pushes resolve as shed).
            if let Some(subscription) = conn.streaming {
                self.streams.remove(&subscription);
                unregister(self.state, subscription);
            }
            self.free.push(id);
            self.live -= 1;
        }
    }

    /// Advances one connection: flush pending output, read what's
    /// available, frame and admit at most one request. Returns whether
    /// anything moved.
    fn pump(&mut self, id: usize) -> bool {
        let Some(mut conn) = self.conns[id].take() else {
            return false;
        };
        let mut activity = false;
        let alive = self.pump_conn(id, &mut conn, &mut activity);
        self.conns[id] = Some(conn);
        if !alive {
            // Route the drop through `close`: a dying stream must retire its
            // subscription and streams-map entry, or a later Push would
            // address whatever connection reuses this slot.
            self.close(id);
        }
        activity
    }

    /// The per-connection state machine; `false` means drop the connection.
    fn pump_conn(&mut self, id: usize, conn: &mut Conn, activity: &mut bool) -> bool {
        // Write phase: drain pending response bytes.
        if conn.out_pos < conn.out.len() {
            loop {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => return false,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_progress = Instant::now();
                        *activity = true;
                        if conn.out_pos >= conn.out.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            conn.out.clear();
            conn.out_pos = 0;
            if conn.close_after_write {
                return false;
            }
        }
        // A subscription stream is one-way: frames go out via Push
        // completions, and the peer's read side only matters for detecting
        // close. Anything it sends is consumed and discarded — there is no
        // request framing on a stream.
        if conn.streaming.is_some() {
            loop {
                match conn.stream.read(&mut self.rdbuf) {
                    Ok(0) => return false,
                    Ok(_) => {
                        conn.last_progress = Instant::now();
                        *activity = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            return true;
        }
        // One in-flight request per connection: responses go back in
        // request order, and the loop never reads ahead of the worker.
        if conn.busy {
            return true;
        }
        // Read phase: pull everything available into the framer.
        if !conn.eof {
            loop {
                match conn.stream.read(&mut self.rdbuf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.frame_since.is_none() {
                            conn.frame_since = Some(Instant::now());
                        }
                        conn.frame.extend(&self.rdbuf[..n]);
                        conn.last_progress = Instant::now();
                        *activity = true;
                        if n < self.rdbuf.len() {
                            // Short read: the socket buffer is drained — skip
                            // the confirming read() that would just say
                            // WouldBlock. A byte racing in right now is
                            // picked up on the next sweep.
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
        }
        // Frame phase: admit a complete request, or answer framing errors.
        match conn.frame.try_take() {
            FrameOutcome::Complete(request) => {
                conn.frame_since = if conn.frame.is_empty() {
                    None
                } else {
                    // Pipelined bytes of the next request are already here.
                    Some(Instant::now())
                };
                *activity = true;
                self.admit(id, conn, request);
                true
            }
            FrameOutcome::Partial => {
                if conn.eof {
                    if conn.frame.is_empty() {
                        false // peer closed between requests: silent drop
                    } else {
                        // EOF mid-request: best-effort 400, then close.
                        queue_response(conn, &Response::error(400, "truncated request"), true);
                        true
                    }
                } else {
                    true
                }
            }
            // Framing-level rejections are answered by the loop itself and
            // never reach the scheduler or the request ledger.
            FrameOutcome::Malformed(message) => {
                queue_response(conn, &Response::error(400, &message), true);
                true
            }
            FrameOutcome::TooLarge(message) => {
                queue_response(conn, &Response::error(413, &message), true);
                true
            }
        }
    }

    /// Admits one complete request: shed at the queue bound, else answer a
    /// warm hit inline or push to the scheduler.
    fn admit(&mut self, id: usize, conn: &mut Conn, request: Request) {
        let now = Instant::now();
        // Backpressure: shed at admission when the scheduler is at its
        // bound, through this same write path — shed requests are exact in
        // `overloaded` and absent from the request ledger.
        if self.state.queue_depth.load(Ordering::SeqCst) >= self.state.config.queue_bound {
            self.state.overloaded.fetch_add(1, Ordering::SeqCst);
            queue_response(conn, &overload_response(self.state), true);
            return;
        }
        if !conn.counted {
            conn.counted = true;
            self.connections += 1;
        }
        let deadline_base = if conn.first_request {
            conn.accepted_at
        } else {
            now
        };
        conn.first_request = false;
        conn.busy = true;
        conn.last_active = now;
        if let Some(result) = inline_hit(self.state, &request, deadline_base) {
            // The completion a worker would send, through the same fault
            // sites; `read_stall` stays with worker claims (the loop never
            // sleeps).
            let completion = request_faults(id, self.state).unwrap_or_else(|| {
                self.state.requests_inline.fetch_add(1, Ordering::SeqCst);
                let response = Response::ok(wire::generation_to_body(&result));
                respond(id, request.close, &response, false, self.state)
            });
            self.inline.push(completion);
            return;
        }
        self.state.queue_depth.fetch_add(1, Ordering::SeqCst);
        self.scheduler.push(PendingItem {
            conn_id: id,
            request,
            admitted_at: now,
            deadline_base,
        });
    }

    /// Periodic sweep for idle and stalled peers.
    fn scan_timeouts(&mut self, now: Instant) -> bool {
        let io_timeout = self.state.config.io_timeout;
        let mut any = false;
        for id in 0..self.conns.len() {
            let action = match self.conns[id].as_mut() {
                None => TimeoutAction::Keep,
                Some(conn) if conn.busy => TimeoutAction::Keep,
                Some(conn) if conn.streaming.is_some() => {
                    // A stream idles as long as it likes; only a peer that
                    // stops draining queued frames loses the slot (the
                    // slow-consumer policy's backstop behind frame shed).
                    if conn.out_pos < conn.out.len()
                        && now.duration_since(conn.last_progress) > io_timeout
                    {
                        TimeoutAction::Drop
                    } else {
                        TimeoutAction::Keep
                    }
                }
                Some(conn) => {
                    if conn.out_pos < conn.out.len() {
                        // A peer not draining its response gets io_timeout
                        // of write grace, then the slot is reclaimed.
                        if now.duration_since(conn.last_progress) > io_timeout {
                            TimeoutAction::Drop
                        } else {
                            TimeoutAction::Keep
                        }
                    } else if let Some(since) = conn.frame_since {
                        // Mid-request stall: the whole head+body gets
                        // 2 × io_timeout (room for an idle keep-alive wait
                        // plus the request itself), then a best-effort 408 —
                        // the slowloris bound.
                        if now.duration_since(since) > 2 * io_timeout {
                            TimeoutAction::Stalled408
                        } else {
                            TimeoutAction::Keep
                        }
                    } else if now.duration_since(conn.last_progress) > io_timeout {
                        // Idle keep-alive peer: silent drop.
                        TimeoutAction::Drop
                    } else {
                        TimeoutAction::Keep
                    }
                }
            };
            match action {
                TimeoutAction::Keep => {}
                TimeoutAction::Drop => {
                    self.close(id);
                    any = true;
                }
                TimeoutAction::Stalled408 => {
                    let conn = self.conns[id].as_mut().expect("conn matched for 408");
                    queue_response(conn, &Response::error(408, "request timeout"), true);
                    // Give the 408 write its own grace window.
                    conn.last_progress = now;
                    conn.frame_since = None;
                    any = true;
                }
            }
        }
        any
    }
}

// ---------------------------------------------------------------------------
// Routing and endpoint handlers
// ---------------------------------------------------------------------------

/// What a path + method resolved to, after route-prefix stripping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Endpoint {
    Healthz,
    Stats,
    Generate,
    GenerateBatch,
    Disturb,
    Subscribe,
    Shutdown,
}

/// One row of the endpoint table.
struct EndpointSpec {
    method: &'static str,
    /// The endpoint path after the optional route prefix (may itself
    /// contain `/`, e.g. `generate/batch`).
    path: &'static str,
    endpoint: Endpoint,
    /// Whole-process endpoints only exist unrouted (`/shutdown`).
    global_only: bool,
}

/// The wire's endpoint table. One table drives the inline-hit test
/// ([`generate_route`]), routing ([`route`]), and 405-vs-404 synthesis, so
/// the three can never drift.
const ENDPOINT_TABLE: &[EndpointSpec] = &[
    EndpointSpec {
        method: "GET",
        path: "healthz",
        endpoint: Endpoint::Healthz,
        global_only: false,
    },
    EndpointSpec {
        method: "GET",
        path: "stats",
        endpoint: Endpoint::Stats,
        global_only: false,
    },
    EndpointSpec {
        method: "POST",
        path: "generate",
        endpoint: Endpoint::Generate,
        global_only: false,
    },
    EndpointSpec {
        method: "POST",
        path: "generate/batch",
        endpoint: Endpoint::GenerateBatch,
        global_only: false,
    },
    EndpointSpec {
        method: "POST",
        path: "disturb",
        endpoint: Endpoint::Disturb,
        global_only: false,
    },
    EndpointSpec {
        method: "POST",
        path: "subscribe",
        endpoint: Endpoint::Subscribe,
        global_only: false,
    },
    EndpointSpec {
        method: "POST",
        path: "shutdown",
        endpoint: Endpoint::Shutdown,
        global_only: true,
    },
];

/// Splits a request path into `(engine_idx, endpoint, routed)`: the first
/// path segment selects the engine when it names a registered route; bare
/// endpoints go to the default (first) engine.
fn resolve_path<'p>(config: &ServerConfig<'_>, path: &'p str) -> (usize, &'p str, bool) {
    let path = path.split('?').next().unwrap_or("");
    let trimmed = path.strip_prefix('/').unwrap_or(path);
    match trimmed.split_once('/') {
        Some((name, rest)) => match config.route_index(name) {
            Some(idx) => (idx, rest, true),
            None => (0, trimmed, false),
        },
        None => (0, trimmed, false),
    }
}

/// Table lookup: `Ok` on an exact (method, path) match; `Err(true)` when the
/// path names an endpoint but under a different method (405); `Err(false)`
/// when nothing matches (404).
fn lookup_endpoint(method: &str, endpoint: &str, routed: bool) -> Result<Endpoint, bool> {
    let mut name_matched = false;
    for spec in ENDPOINT_TABLE {
        if spec.global_only && routed {
            continue;
        }
        if spec.path == endpoint {
            if spec.method == method {
                return Ok(spec.endpoint);
            }
            name_matched = true;
        }
    }
    Err(name_matched)
}

/// The engine a `POST [/NAME]/generate` resolves to through the endpoint
/// table; `None` for every other request.
fn generate_route(config: &ServerConfig<'_>, request: &Request) -> Option<usize> {
    let (engine_idx, endpoint, routed) = resolve_path(config, &request.path);
    (lookup_endpoint(&request.method, endpoint, routed) == Ok(Endpoint::Generate))
        .then_some(engine_idx)
}

fn overload_response(state: &ServeState<'_, '_>) -> Response {
    // The uniform v1 error body, plus the shed-visibility extras clients use
    // to size their backoff (extra top-level fields are within the schema).
    let (code, retryable) = http::error_class(429);
    Response {
        status: 429,
        body: wire::versioned(Json::obj([
            (
                "error",
                Json::obj([
                    ("code", Json::Str(code.to_string())),
                    ("detail", Json::Str("overloaded".to_string())),
                    ("retryable", Json::Bool(retryable)),
                ]),
            ),
            (
                "queue_depth",
                Json::num(state.queue_depth.load(Ordering::SeqCst) as u64),
            ),
            ("queue_bound", Json::num(state.config.queue_bound as u64)),
        ]))
        .encode(),
    }
}

fn deadline_response() -> Response {
    Response::error(503, "deadline exceeded")
}

/// Routes one request through the endpoint table. Returns the response and
/// whether the server should stop after sending it. `/subscribe` never
/// reaches here — [`serve_single`] intercepts it (a stream is not a
/// [`Response`]).
fn route(
    request: &Request,
    state: &ServeState<'_, '_>,
    budget: &SessionBudget,
    done: &Sender<Completion>,
) -> (Response, bool) {
    let path = request.path.split('?').next().unwrap_or("");
    let (engine_idx, endpoint, routed) = resolve_path(state.config, &request.path);
    let name = state.config.routes[engine_idx].name.as_str();
    let engine = state.config.routes[engine_idx].engine;
    let response = match lookup_endpoint(&request.method, endpoint, routed) {
        Ok(Endpoint::Healthz) => Response::ok(
            wire::versioned(Json::obj([
                ("ok", Json::Bool(true)),
                ("epoch", Json::num(engine.epoch())),
                ("engine", Json::Str(name.to_string())),
            ]))
            .encode(),
        ),
        Ok(Endpoint::Stats) => handle_stats(state, engine_idx),
        Ok(Endpoint::Generate) => handle_generate(request, engine, state, budget),
        Ok(Endpoint::GenerateBatch) => handle_generate_batch(request, engine, state, budget),
        Ok(Endpoint::Disturb) => handle_disturb(request, engine, engine_idx, state, done),
        // Shutdown is a whole-process action: it only exists unrouted
        // (the table hides it from routed paths).
        Ok(Endpoint::Shutdown) => {
            return (
                Response::ok(wire::versioned(Json::obj([("ok", Json::Bool(true))])).encode()),
                true,
            )
        }
        // Unreachable: serve_single intercepts subscribes before routing.
        Ok(Endpoint::Subscribe) => Response::error(500, "internal error"),
        Err(true) => Response::error(
            405,
            &format!("method {} not allowed for {path}", request.method),
        ),
        Err(false) => Response::error(404, &format!("no route for {path}")),
    };
    (response, false)
}

fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "body is not utf-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, &e.to_string()))
}

/// Enforces the v1 envelope on a tree-parsed request body: missing or
/// unsupported versions answer 400 with the explicit `bad_version` code.
fn check_body_version(body: &Json) -> Result<(), Response> {
    wire::check_version(body)
        .map_err(|e| Response::error_coded(400, "bad_version", &e.to_string(), false))
}

/// Pulls and validates a test-node set against the engine's graph, so
/// invalid queries become a 400 instead of a worker panic.
fn parse_nodes(value: &Json, num_nodes: usize) -> Result<Vec<usize>, Response> {
    let nodes = value
        .as_arr()
        .and_then(|items| {
            items
                .iter()
                .map(|x| x.as_usize())
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| Response::error(400, &e.to_string()))?;
    validate_nodes(nodes, num_nodes)
}

/// The shared range/emptiness validation behind both `/generate` decoders.
fn validate_nodes(nodes: Vec<usize>, num_nodes: usize) -> Result<Vec<usize>, Response> {
    if nodes.is_empty() {
        return Err(Response::error(400, "empty test-node set"));
    }
    if let Some(&bad) = nodes.iter().find(|&&v| v >= num_nodes) {
        return Err(Response::error(
            400,
            &format!("node {bad} out of range (graph has {num_nodes} nodes)"),
        ));
    }
    Ok(nodes)
}

/// Parses and validates a `/generate` request body into its test-node set.
///
/// The direct decoder handles the well-formed case without building a
/// [`Json`] tree; anything it rejects is re-parsed through the tree path so
/// malformed bodies keep their established 400 messages.
fn generate_nodes(request: &Request, num_nodes: usize) -> Result<Vec<usize>, Response> {
    if let Ok(text) = std::str::from_utf8(&request.body) {
        if let Ok(nodes) = wire::nodes_from_body(text) {
            return validate_nodes(nodes, num_nodes);
        }
    }
    let body = parse_body(request)?;
    check_body_version(&body)?;
    let value = body
        .field("nodes")
        .map_err(|e| Response::error(400, &e.to_string()))?;
    parse_nodes(value, num_nodes)
}

/// Maps an engine-side budget abort to the 503 wire error (counted).
fn budget_rejection(state: &ServeState<'_, '_>) -> Response {
    state.deadline_rejections.fetch_add(1, Ordering::SeqCst);
    deadline_response()
}

fn handle_generate(
    request: &Request,
    engine: &dyn ServedEngine,
    state: &ServeState<'_, '_>,
    budget: &SessionBudget,
) -> Response {
    let nodes = match generate_nodes(request, engine.num_nodes()) {
        Ok(nodes) => nodes,
        Err(r) => return r,
    };
    match engine.generate_with_budget(&nodes, budget) {
        Ok(result) => Response::ok(wire::generation_to_body(&result)),
        Err(BudgetExceeded) => budget_rejection(state),
    }
}

fn handle_generate_batch(
    request: &Request,
    engine: &dyn ServedEngine,
    state: &ServeState<'_, '_>,
    budget: &SessionBudget,
) -> Response {
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(r) => return r,
    };
    if let Err(r) = check_body_version(&body) {
        return r;
    }
    let queries = match body
        .field("queries")
        .and_then(|q| q.as_arr())
        .map_err(|e| Response::error(400, &e.to_string()))
    {
        Ok(q) => q,
        Err(r) => return r,
    };
    let num_nodes = engine.num_nodes();
    // Validate the whole batch before generating anything: a malformed
    // batch is rejected all-or-nothing. Generation itself is sequential —
    // on a mid-batch deadline abort the batch answers 503, and the queries
    // already answered stay in the store (each is a complete, valid witness
    // that makes a retry warm).
    let mut parsed = Vec::with_capacity(queries.len());
    for query in queries {
        match parse_nodes(query, num_nodes) {
            Ok(nodes) => parsed.push(nodes),
            Err(r) => return r,
        }
    }
    let mut results = Vec::with_capacity(parsed.len());
    for nodes in &parsed {
        match engine.generate_with_budget(nodes, budget) {
            Ok(result) => results.push(wire::generation_to_json(&result)),
            Err(BudgetExceeded) => return budget_rejection(state),
        }
    }
    Response::ok(wire::versioned(Json::obj([("results", Json::Arr(results))])).encode())
}

fn handle_disturb(
    request: &Request,
    engine: &dyn ServedEngine,
    engine_idx: usize,
    state: &ServeState<'_, '_>,
    done: &Sender<Completion>,
) -> Response {
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(r) => return r,
    };
    if let Err(r) = check_body_version(&body) {
        return r;
    }
    // Either one disturbance ({"flips": [...]}) or a batch
    // ({"disturbances": [{"flips": [...]}, ...]}).
    let decoded = if body.get("disturbances").is_some() {
        body.field("disturbances")
            .and_then(|ds| ds.as_arr())
            .and_then(|ds| ds.iter().map(wire::disturbance_from_json).collect())
    } else {
        wire::disturbance_from_json(&body).map(|d| vec![d])
    };
    let disturbances = match decoded {
        Ok(ds) => ds,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let report = engine.disturb(&disturbances);
    let disturbance_id = state.disturb_seq.fetch_add(1, Ordering::SeqCst) + 1;
    // Fan-out: every (subscription, touched-entry) match owes exactly one
    // update, pushed the moment the engine's repair completed (the entry's
    // result was captured under the store lock, so it is bit-exact with a
    // fresh /generate at this epoch). Owed is counted under the registry
    // lock; each push is resolved exactly once by the event loop.
    if !report.entries.is_empty() {
        let subs = lock_subs(state);
        for entry in &report.entries {
            for sub in subs
                .iter()
                .filter(|s| s.engine_idx == engine_idx && s.key == entry.test_nodes)
            {
                state.updates_owed.fetch_add(1, Ordering::SeqCst);
                let frame = wire::update_frame_to_body(&wire::WitnessUpdate {
                    subscription: sub.id,
                    disturbance: disturbance_id,
                    outcome: entry.outcome,
                    epoch: report.epoch,
                    result: entry.result.clone(),
                });
                let _ = done.send(Completion::Push {
                    subscription: sub.id,
                    bytes: http::encode_stream_frame(&frame),
                });
            }
        }
    }
    Response::ok(wire::versioned(wire::disturb_report_to_json(&report)).encode())
}

/// The stats payload: the selected engine's snapshot under `engine` (the
/// default engine for the unrouted `/stats`), every registered engine's
/// snapshot under `engines`, and the transport counters under `server`.
fn handle_stats(state: &ServeState<'_, '_>, engine_idx: usize) -> Response {
    let engines: Vec<(String, Json)> = state
        .config
        .routes
        .iter()
        .map(|r| (r.name.clone(), wire::snapshot_to_json(&r.engine.snapshot())))
        .collect();
    // The selected engine's snapshot is already in the map: cloning the
    // encoded value is cheaper than taking the engine's locks a second time.
    let selected = engines[engine_idx].1.clone();
    let per_worker: Vec<Json> = state
        .counts
        .iter()
        .map(|c| Json::Num(c.load(Ordering::SeqCst) as f64))
        .collect();
    Response::ok(
        wire::versioned(Json::obj([
            ("engine", selected),
            ("engines", Json::Obj(engines)),
            (
                "server",
                Json::obj([
                    ("workers", Json::num(state.counts.len() as u64)),
                    ("requests_per_worker", Json::Arr(per_worker)),
                    (
                        "requests_inline",
                        Json::num(state.requests_inline.load(Ordering::SeqCst) as u64),
                    ),
                    ("queue_bound", Json::num(state.config.queue_bound as u64)),
                    (
                        "queue_depth",
                        Json::num(state.queue_depth.load(Ordering::SeqCst) as u64),
                    ),
                    (
                        "overloaded",
                        Json::num(state.overloaded.load(Ordering::SeqCst) as u64),
                    ),
                    (
                        "deadline_rejections",
                        Json::num(state.deadline_rejections.load(Ordering::SeqCst) as u64),
                    ),
                    (
                        "worker_restarts",
                        Json::num(state.worker_restarts.load(Ordering::SeqCst) as u64),
                    ),
                    (
                        "batch_claims",
                        Json::num(state.batch_claims.load(Ordering::SeqCst) as u64),
                    ),
                    (
                        "batch_items",
                        Json::num(state.batch_items.load(Ordering::SeqCst) as u64),
                    ),
                    (
                        "admission_wait_us",
                        Json::num(state.admission_wait_us.load(Ordering::SeqCst)),
                    ),
                    ("subscriptions", Json::num(lock_subs(state).len() as u64)),
                    (
                        "updates_owed",
                        Json::num(state.updates_owed.load(Ordering::SeqCst)),
                    ),
                    (
                        "updates_delivered",
                        Json::num(state.updates_delivered.load(Ordering::SeqCst)),
                    ),
                    (
                        "updates_shed",
                        Json::num(state.updates_shed.load(Ordering::SeqCst)),
                    ),
                ]),
            ),
        ]))
        .encode(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_config_validation_rejects_bad_registries() {
        // A dummy engine is needed only for the reference; validation is
        // name/size-level, so reuse a tiny real engine.
        let mut g = rcw_graph::Graph::with_nodes(2);
        g.add_edge(0, 1);
        g.set_features(0, vec![1.0]);
        g.set_features(1, vec![0.0]);
        g.set_label(0, 0);
        g.set_label(1, 1);
        let gcn = rcw_gnn::Gcn::new(&[1, 2, 2], 1);
        let engine = WitnessEngine::new(
            std::sync::Arc::new(g),
            &gcn,
            rcw_core::RcwConfig::with_budgets(0, 0),
        );

        assert!(ServerConfig::single(&engine).validate().is_ok());
        assert!(ServerConfig::single(&engine)
            .with_route("gcn", &engine)
            .validate()
            .is_ok());
        // reserved, duplicate, malformed names; zero-size pool/queue
        for bad in ["generate", "stats", "shutdown", "Weird Name", ""] {
            assert!(
                ServerConfig::single(&engine)
                    .with_route(bad, &engine)
                    .validate()
                    .is_err(),
                "route name {bad:?} must be rejected"
            );
        }
        assert!(ServerConfig::single(&engine)
            .with_route("default", &engine)
            .validate()
            .is_err());
        assert!(ServerConfig::single(&engine)
            .with_workers(0)
            .validate()
            .is_err());
        assert!(ServerConfig::single(&engine)
            .with_queue_bound(0)
            .validate()
            .is_err());
        let empty = ServerConfig {
            routes: Vec::new(),
            workers: 1,
            queue_bound: 1,
            default_deadline: None,
            io_timeout: IDLE_READ_TIMEOUT,
            faults: Arc::new(FaultPlan::none()),
        };
        assert!(empty.validate().is_err());
        assert!(ServerConfig::single(&engine)
            .with_io_timeout(Duration::ZERO)
            .validate()
            .is_err());
    }

    #[test]
    fn generate_route_mirrors_route_prefixes() {
        let mut g = rcw_graph::Graph::with_nodes(2);
        g.add_edge(0, 1);
        g.set_features(0, vec![1.0]);
        g.set_features(1, vec![0.0]);
        g.set_label(0, 0);
        g.set_label(1, 1);
        let gcn = rcw_gnn::Gcn::new(&[1, 2, 2], 1);
        let engine = WitnessEngine::new(
            std::sync::Arc::new(g),
            &gcn,
            rcw_core::RcwConfig::with_budgets(0, 0),
        );
        let config = ServerConfig::single(&engine).with_route("gcn", &engine);
        let request = |method: &str, path: &str| Request {
            method: method.to_string(),
            path: path.to_string(),
            body: Vec::new(),
            close: false,
            deadline_ms: None,
        };
        assert_eq!(
            generate_route(&config, &request("POST", "/generate")),
            Some(0)
        );
        assert_eq!(
            generate_route(&config, &request("POST", "/gcn/generate?x=1")),
            Some(1)
        );
        // Unknown prefixes fall back to the default engine's endpoint set —
        // which has no "nope/generate", so they never go inline.
        assert_eq!(
            generate_route(&config, &request("POST", "/nope/generate")),
            None
        );
        assert_eq!(generate_route(&config, &request("GET", "/generate")), None);
        assert_eq!(generate_route(&config, &request("POST", "/disturb")), None);
    }

    /// The receptive window runs from the applied answer, so a closed-loop
    /// peer whose request took longer than the window still keeps the loop
    /// sweeping for its follow-up.
    #[test]
    fn a_peer_is_receptive_right_after_its_answer_however_long_its_request_took() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let admitted = Instant::now();
        let mut conn = Conn {
            stream,
            frame: FrameBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            close_after_write: false,
            busy: true,
            counted: true,
            first_request: false,
            eof: false,
            accepted_at: admitted,
            last_progress: admitted,
            frame_since: None,
            last_active: admitted,
            streaming: None,
        };
        // the request runs for three windows
        let applied = admitted + 3 * RECEPTIVE_WINDOW;
        assert!(!conn.receptive(applied), "a busy peer is not receptive");
        conn.answered(b"HTTP/1.1 200 OK\r\n\r\n".to_vec(), false, applied);
        assert!(!conn.receptive(applied), "its answer is still queued");
        conn.out_pos = conn.out.len();
        assert!(conn.receptive(applied));
        assert!(conn.receptive(applied + RECEPTIVE_WINDOW / 2));
        assert!(!conn.receptive(applied + RECEPTIVE_WINDOW));
    }
}
