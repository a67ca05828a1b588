//! The TCP load generators. Each connection is one client thread; no phase
//! uses more than two.

use crate::inputs::{generate_body, Event, ROUTES};
use crate::trace::{Span, Tracer};
use rcw_graph::NodeId;
use rcw_server::client::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A prebuilt `/generate` request.
#[derive(Clone, Debug)]
pub struct Query {
    pub route: usize,
    pub nodes: Vec<NodeId>,
    pub body: String,
}

impl Query {
    pub fn new(route: usize, nodes: &[NodeId]) -> Query {
        Query {
            route,
            nodes: nodes.to_vec(),
            body: generate_body(nodes),
        }
    }
}

/// What one connection (or one phase) observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Per-request latency, in send order.
    pub latencies_ns: Vec<u64>,
    /// Per-request send time, in nanoseconds since the phase started.
    pub starts_ns: Vec<u64>,
    /// Route of each request (parallel to `latencies_ns`).
    pub routes: Vec<usize>,
    /// Requests sent.
    pub sent: usize,
    /// Non-200 answers and transport failures.
    pub failed: usize,
    /// Kept answers: `(query index, body text)`.
    pub kept: Vec<(usize, String)>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl Observed {
    fn absorb(&mut self, other: Observed) {
        self.latencies_ns.extend(other.latencies_ns);
        self.starts_ns.extend(other.starts_ns);
        self.routes.extend(other.routes);
        self.sent += other.sent;
        self.failed += other.failed;
        self.kept.extend(other.kept);
        self.spans.extend(other.spans);
    }

    /// `(send time, latency)` of every request on `route` (any route when
    /// `None`), in nanoseconds.
    pub fn samples(&self, route: Option<usize>) -> Vec<(u64, u64)> {
        self.starts_ns
            .iter()
            .zip(&self.latencies_ns)
            .zip(&self.routes)
            .filter(|(_, &r)| route.is_none_or(|want| want == r))
            .map(|((&s, &l), _)| (s, l))
            .collect()
    }
}

/// One connection's request loop state.
struct Conn {
    client: Client,
    origin: Instant,
    route: Option<usize>,
    tracer: Option<Tracer>,
    out: Observed,
}

impl Conn {
    fn open(addr: &str, origin: Instant, trace: Option<(Instant, u64)>) -> Result<Conn, String> {
        Ok(Conn {
            client: Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            origin,
            route: None,
            tracer: trace.map(|(origin, lane)| Tracer::new(origin, lane)),
            out: Observed::default(),
        })
    }

    fn route(&mut self, route: usize) {
        if self.route != Some(route) {
            self.client.set_route(Some(ROUTES[route]));
            self.route = Some(route);
        }
    }

    /// Sends one `/generate`; keeps the answer text when `keep` is set.
    fn generate(&mut self, index: usize, query: &Query, keep: bool) {
        self.route(query.route);
        let start = Instant::now();
        let answer = self.client.generate_text(&query.body);
        let latency = start.elapsed();
        if let Some(tracer) = &mut self.tracer {
            tracer.record("server.generate", 0, start);
        }
        self.out.sent += 1;
        self.out.latencies_ns.push(latency.as_nanos() as u64);
        self.out
            .starts_ns
            .push(start.duration_since(self.origin).as_nanos() as u64);
        self.out.routes.push(query.route);
        match answer {
            Ok((200, text)) => {
                if keep {
                    self.out.kept.push((index, text));
                }
            }
            Ok(_) => self.out.failed += 1,
            Err(_) => {
                self.out.failed += 1;
                let _ = self.client.reconnect();
            }
        }
    }

    fn finish(mut self) -> Observed {
        if let Some(tracer) = self.tracer.take() {
            self.out.spans = tracer.spans;
        }
        self.out
    }
}

/// Closed-loop warm reads: `conns` connections each walk `order` (indices
/// into `queries`) from their own offset until `duration` has passed. Every
/// `keep_every`-th answer of a connection is kept for the correctness check.
pub fn warm_reads(
    addr: &str,
    queries: &[Query],
    order: &[usize],
    conns: usize,
    duration: Duration,
    keep_every: usize,
    trace: Option<Instant>,
) -> Result<(Observed, Duration), String> {
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<Result<Observed, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr, start, trace.map(|o| (o, 1 + c as u64)))?;
                    let mut i = c * order.len() / conns.max(1);
                    let mut n = 0usize;
                    while Instant::now() < deadline {
                        let index = order[i % order.len()];
                        conn.generate(index, &queries[index], n % keep_every == c);
                        i += 1;
                        n += 1;
                    }
                    Ok(conn.finish())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut all = Observed::default();
    for r in results {
        all.absorb(r?);
    }
    Ok((all, elapsed))
}

/// Sends every query once, in order, over one connection per route (so each
/// engine sees its queries in a fixed order), keeping every answer.
pub fn warm_up(addr: &str, per_route: [&[Query]; 2]) -> Result<Observed, String> {
    let results: Vec<Result<Observed, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_route
            .iter()
            .map(|queries| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr, Instant::now(), None)?;
                    for (i, q) in queries.iter().enumerate() {
                        conn.generate(i, q, true);
                    }
                    Ok(conn.finish())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut all = Observed::default();
    for r in results {
        all.absorb(r?);
    }
    Ok(all)
}

/// Closed-loop cold requests over one connection, alternating routes, each
/// a node set never sent before. Stops after `duration` or when a route's
/// list runs out. Keeps every answer; `kept` indices are `2 * i + route`.
pub fn cold_requests(
    addr: &str,
    cold: [&[Query]; 2],
    duration: Duration,
    trace: Option<Instant>,
) -> Result<Observed, String> {
    let start = Instant::now();
    let deadline = start + duration;
    let mut conn = Conn::open(addr, start, trace.map(|o| (o, 3)))?;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let (route, i) = (k % 2, k / 2);
        let Some(query) = cold[route].get(i) else {
            break;
        };
        conn.generate(k, query, true);
        k += 1;
    }
    Ok(conn.finish())
}

/// What the disturb phase observed.
#[derive(Debug, Default)]
pub struct Disturbed {
    /// The reader connection.
    pub reads: Observed,
    /// Per event: latency from when it was due to its answer.
    pub disturb_ns: Vec<u64>,
    /// Per event: how late it was sent relative to its schedule.
    pub late_ns: Vec<u64>,
    /// Events answered 200 whose report applied every flip.
    pub applied: usize,
    /// Events that failed (non-200, transport, or flips not applied).
    pub failed: usize,
    pub spans: Vec<Span>,
}

/// When event `i` of a stream of `rate` events per second is due. Events
/// come in pairs, one per route: the first (GCN, a short repair) at the
/// start of the pair's period, the second (APPNP, about four times longer) a
/// quarter period later, which leaves it three quarters of the period before
/// the next pair. An evenly spaced stream let APPNP's slow events delay the
/// GCN event behind them on the one disturb connection, so GCN latency
/// measured APPNP's tail.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    let period = 2.0 / rate;
    let within = if i.is_multiple_of(2) {
        0.0
    } else {
        period / 4.0
    };
    Duration::from_secs_f64((i / 2) as f64 * period + within)
}

/// One closed-loop reader over `order` beside one open-loop disturber that
/// sends `events` at `rate` per second (see [`due_offset`]), each timed from
/// when it was due. Read answers are not compared: their epoch is unknown.
pub fn disturb_beside_reads(
    addr: &str,
    queries: &[Query],
    order: &[usize],
    events: &[Event],
    rate: f64,
    keep_every: usize,
    trace: Option<Instant>,
) -> Result<Disturbed, String> {
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let start = Instant::now();
    let (reads, disturber) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Result<Observed, String> {
            let mut conn = Conn::open(addr, start, trace.map(|o| (o, 4)))?;
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let index = order[i % order.len()];
                conn.generate(index, &queries[index], i.is_multiple_of(keep_every));
                i += 1;
            }
            Ok(conn.finish())
        });
        let disturber = scope.spawn(move || -> Result<Disturbed, String> {
            let result = (|| {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut tracer = trace.map(|o| Tracer::new(o, 5));
                let mut out = Disturbed::default();
                let t0 = Instant::now();
                for (i, event) in events.iter().enumerate() {
                    let due = t0 + due_offset(i, rate);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    client.set_route(Some(ROUTES[event.route]));
                    let report = client.disturb(&event.flips);
                    let done = Instant::now();
                    if let Some(tracer) = &mut tracer {
                        tracer.record("server.disturb", 0, sent);
                    }
                    out.disturb_ns
                        .push(done.duration_since(due).as_nanos() as u64);
                    out.late_ns.push(sent.duration_since(due).as_nanos() as u64);
                    match report {
                        Ok(r) if r.flips_applied == event.flips.len() => out.applied += 1,
                        Ok(_) => out.failed += 1,
                        Err(_) => {
                            out.failed += 1;
                            let _ = client.reconnect();
                        }
                    }
                }
                if let Some(tracer) = tracer {
                    out.spans = tracer.spans;
                }
                Ok(out)
            })();
            stop.store(true, Ordering::Release);
            result
        });
        (
            reader.join().expect("reader thread panicked"),
            disturber.join().expect("disturber thread panicked"),
        )
    });
    let mut out = disturber?;
    out.reads = reads?;
    Ok(out)
}

/// Fetches one answer over a fresh connection (post-window probes).
pub fn fetch_all(addr: &str, queries: &[&Query]) -> Result<Vec<String>, String> {
    let mut conn = Conn::open(addr, Instant::now(), None)?;
    let mut texts = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        conn.generate(i, q, true);
        if conn.out.kept.len() != i + 1 {
            return Err(format!(
                "probe of {:?} on /{} failed",
                q.nodes, ROUTES[q.route]
            ));
        }
        texts.push(conn.out.kept[i].1.clone());
    }
    Ok(texts)
}
