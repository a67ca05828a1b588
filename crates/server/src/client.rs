//! A small blocking client for the witness-serving wire format.
//!
//! Used by the in-crate end-to-end tests and the smoke test that drives the
//! `rcw_serve` binary; it doubles as executable documentation of the wire
//! format. One client holds one kept-alive connection.
//!
//! Speaks wire protocol v1: every request body carries `"v": 1`, every
//! response body is checked for the same envelope, and non-2xx replies are
//! decoded as structured error objects whose `retryable` flag — not a
//! hardcoded status list — drives the [`RetryPolicy`]. [`Client::subscribe`]
//! upgrades the connection to a witness-update stream (NDJSON frames).

use crate::http::MAX_BODY_BYTES;
use crate::wire::{self, Json, WireError};
use rcw_core::{DisturbReport, EngineSnapshot, GenerationResult};
use rcw_linalg::Rng;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client-side failure: transport errors and protocol/decoding errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The response could not be parsed, or the server answered an error
    /// status; carries the status code and the body/description. Status `0`
    /// means no usable response arrived at all.
    Protocol(u16, String),
    /// An idempotent request failed transiently on every attempt the
    /// [`RetryPolicy`] allowed; carries the attempt count and the last
    /// failure.
    RetriesExhausted {
        /// Attempts actually made (including the first).
        attempts: usize,
        /// The failure of the final attempt.
        last: Box<ClientError>,
    },
}

impl ClientError {
    /// Whether a retry of an *idempotent* request may succeed: transport
    /// failures (the connection can be re-dialed), no-response failures, and
    /// the transient statuses — 408 (stalled), 429 (shed under overload),
    /// 500 (handler panicked; panics are contained per-connection, so the
    /// server is still up), 503 (deadline pressure).
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Protocol(status, _) => matches!(status, 0 | 408 | 429 | 500 | 503),
            ClientError::RetriesExhausted { .. } => false,
        }
    }

    /// Whether the failure left the connection unusable (retry must
    /// re-dial first).
    fn connection_dead(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Protocol(0, _))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(status, message) => {
                write!(f, "protocol error (status {status}): {message}")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

/// Retry policy for *idempotent* requests: exponential backoff with jitter,
/// a retry budget (`max_attempts`), and deadline awareness (`budget` caps
/// total wall-clock across attempts, sleeps included — the loop never starts
/// a sleep it cannot afford).
///
/// Installed with [`Client::set_retry`]; only the idempotent endpoints
/// (`generate`, `generate/batch`, `healthz`, `stats`) use it, and only for
/// failures the server marks `retryable` in its structured error body (or,
/// when no body parses, the transient status fallback). `disturb` and
/// `shutdown` mutate server state and are never auto-retried: a retried
/// disturbance would flip edges twice.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first. Minimum 1.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per retry after that.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Fraction of each backoff randomized away, in `[0, 1]` — breaks up
    /// synchronized retry herds against a recovering server.
    pub jitter: f64,
    /// Wall-clock cap across all attempts (`None` = attempts alone bound the
    /// loop).
    pub budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 0.5,
            budget: None,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (1-based).
    fn backoff(&self, retry: u32, rng: &mut Rng) -> Duration {
        let doubled = self.base_backoff.saturating_mul(1 << (retry - 1).min(16));
        let capped = doubled.min(self.max_backoff);
        capped.mul_f64(1.0 - self.jitter.clamp(0.0, 1.0) * rng.gen_f64())
    }
}

/// Transient response statuses — the fallback when a non-2xx body does not
/// carry a parseable structured error (see [`ClientError::is_transient`]).
fn transient_status(status: u16) -> bool {
    matches!(status, 408 | 429 | 500 | 503)
}

/// Whether a non-200 response is worth retrying: the structured error
/// body's `retryable` flag when the body parses, the status-code table
/// otherwise (a truncated body should not disable retries).
fn response_retryable(status: u16, text: &str) -> bool {
    Json::parse(text.trim_end())
        .ok()
        .and_then(|v| wire::error_from_json(&v).ok())
        .map(|e| e.retryable)
        .unwrap_or_else(|| transient_status(status))
}

/// Builds the typed protocol error for a non-200 raw body: the structured
/// `error.detail` when the body parses, the raw text otherwise.
fn protocol_error(status: u16, text: &str) -> ClientError {
    let message = Json::parse(text.trim_end())
        .ok()
        .and_then(|v| {
            wire::error_from_json(&v)
                .ok()
                .map(|e| e.detail)
                .or_else(|| {
                    v.get("error")
                        .and_then(|e| e.as_str().ok().map(str::to_string))
                })
        })
        .unwrap_or_else(|| text.trim_end().to_string());
    ClientError::Protocol(status, message)
}

/// Per-process client counter: each client jitters from its own RNG stream
/// so concurrent clients sharing a policy do not sleep in lockstep.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Protocol(200, e.to_string())
    }
}

/// A blocking client over one kept-alive connection.
///
/// Against a multi-engine server, [`Client::set_route`] selects the engine
/// every subsequent request targets (paths gain the `/NAME` prefix), and
/// [`Client::set_deadline_ms`] attaches an `x-rcw-deadline-ms` header so the
/// server bounds how long the query may run — expired requests come back as
/// [`ClientError::Protocol`] with status 503 (or 429 when the server shed
/// the connection under overload).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
    prefix: String,
    deadline_ms: Option<u64>,
    retry: Option<RetryPolicy>,
    read_timeout: Duration,
    rng: Rng,
}

/// Responses slower than this count as a dead connection. Generous by
/// default — cold sessions on full-scale graphs are slow; fault-heavy
/// callers tighten it via [`Client::set_read_timeout`].
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Dials `addr` with the client's socket options set.
fn dial(
    addr: &str,
    read_timeout: Duration,
) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    // Small request/response round trips: disable Nagle so the request
    // is not held back waiting for an ACK of the previous response.
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((reader, stream))
}

impl Client {
    /// Connects to a server address like `127.0.0.1:8080`.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let (reader, writer) = dial(addr, DEFAULT_READ_TIMEOUT)?;
        Ok(Client {
            reader,
            writer,
            host: addr.to_string(),
            prefix: String::new(),
            deadline_ms: None,
            retry: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
            rng: Rng::seed_from_u64(
                0x9e37_79b9_7f4a_7c15 ^ CLIENT_SEQ.fetch_add(1, Ordering::Relaxed),
            ),
        })
    }

    /// Drops the current connection and dials the same address again. Route,
    /// deadline, retry, and read-timeout settings survive; the retry loop
    /// calls this transparently after transport failures, which is what lets
    /// a client ride out a server restart.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = dial(&self.host, self.read_timeout)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Bounds how long one response read may block before the request fails
    /// with a timeout-kind [`ClientError::Io`] (connections start at 60 s).
    /// Chaos-facing callers tighten this so a fault-dropped response costs
    /// seconds, not a minute; the setting survives [`Client::reconnect`].
    pub fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), ClientError> {
        self.read_timeout = timeout;
        // reader and writer share one socket; the option is socket-level.
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        Ok(())
    }

    /// Installs (or clears) the retry policy used by the idempotent
    /// endpoints.
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Targets a named engine route: subsequent requests go to
    /// `/NAME/generate` etc. `None` returns to the server's default engine.
    pub fn set_route(&mut self, route: Option<&str>) {
        self.prefix = match route {
            Some(name) => format!("/{name}"),
            None => String::new(),
        };
    }

    /// Attaches (or clears) a per-request deadline, sent as the
    /// `x-rcw-deadline-ms` header on every subsequent request.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Issues one request and returns `(status, parsed body)`. The path is
    /// prefixed with the selected route (see [`Client::set_route`]).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), ClientError> {
        let body_text = body.map(|b| b.encode()).unwrap_or_default();
        let (status, text) = self.request_raw(method, path, &body_text)?;
        let value = Json::parse(text.trim_end())
            .map_err(|e| ClientError::Protocol(status, e.to_string()))?;
        Ok((status, value))
    }

    /// Issues one request and returns the raw `(status, body text)` without
    /// parsing — the hot endpoints decode straight into their structs.
    fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body_text: &str,
    ) -> Result<(u16, String), ClientError> {
        // Head and body in one write: two small segments would trip Nagle +
        // delayed-ACK stalls (see `http::encode_response`). Built by hand —
        // one request per warm hit makes the formatting itself hot.
        let mut message =
            String::with_capacity(128 + self.prefix.len() + path.len() + body_text.len());
        message.push_str(method);
        message.push(' ');
        message.push_str(&self.prefix);
        message.push_str(path);
        message.push_str(" HTTP/1.1\r\nhost: ");
        message.push_str(&self.host);
        message.push_str("\r\ncontent-type: application/json\r\n");
        if let Some(ms) = self.deadline_ms {
            message.push_str("x-rcw-deadline-ms: ");
            wire::push_u64(&mut message, ms);
            message.push_str("\r\n");
        }
        message.push_str("content-length: ");
        wire::push_u64(&mut message, body_text.len() as u64);
        message.push_str("\r\n\r\n");
        message.push_str(body_text);
        self.writer.write_all(message.as_bytes())?;
        self.writer.flush()?;
        self.read_response_raw()
    }

    /// [`Client::request`] under the installed [`RetryPolicy`]: transient
    /// failures (transport errors, truncated responses, 408/429/500/503)
    /// back off and retry, re-dialing first when the failure killed the
    /// connection. Callers must only route *idempotent* requests here.
    fn request_idempotent(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), ClientError> {
        let body_text = body.map(|b| b.encode()).unwrap_or_default();
        let (status, text) = self.request_idempotent_raw(method, path, &body_text)?;
        let value = Json::parse(text.trim_end())
            .map_err(|e| ClientError::Protocol(status, e.to_string()))?;
        Ok((status, value))
    }

    /// The raw-body core of [`Client::request_idempotent`].
    fn request_idempotent_raw(
        &mut self,
        method: &str,
        path: &str,
        body_text: &str,
    ) -> Result<(u16, String), ClientError> {
        let Some(policy) = self.retry.clone() else {
            return self.request_raw(method, path, body_text);
        };
        let start = Instant::now();
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0usize;
        let mut last: Option<ClientError> = None;
        while attempts < max_attempts {
            if let Some(failed) = &last {
                let delay = policy.backoff(attempts as u32, &mut self.rng);
                if let Some(budget) = policy.budget {
                    // Deadline awareness: never start a sleep (or attempt)
                    // the budget cannot afford.
                    if start.elapsed() + delay >= budget {
                        break;
                    }
                }
                std::thread::sleep(delay);
                if failed.connection_dead() && self.reconnect().is_err() {
                    // Server still down: burn the attempt, keep backing off.
                    attempts += 1;
                    continue;
                }
            }
            attempts += 1;
            match self.request_raw(method, path, body_text) {
                Ok((status, text)) if status != 200 && response_retryable(status, &text) => {
                    last = Some(protocol_error(status, &text));
                }
                Ok(pair) => return Ok(pair),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts,
            last: Box::new(
                last.unwrap_or_else(|| ClientError::Protocol(0, "no attempt made".to_string())),
            ),
        })
    }

    fn read_response_raw(&mut self) -> Result<(u16, String), ClientError> {
        // Pull the whole response head (status line + headers + blank line)
        // in as few reads as possible — one `fill_buf` in the common case —
        // instead of a `read_line` per header. The head is tiny, so the
        // rescan for `\r\n\r\n` after each chunk is cheap.
        let mut head: Vec<u8> = Vec::with_capacity(192);
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Err(if head.is_empty() {
                    ClientError::Protocol(0, "connection closed".to_string())
                } else {
                    // The peer died mid-response: a transport failure (the
                    // connection is unusable), not a protocol-level answer.
                    ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "response truncated mid-headers",
                    ))
                });
            }
            // The terminator may straddle the previous chunk's tail.
            let scan_from = head.len().saturating_sub(3);
            let chunk_start = head.len();
            head.extend_from_slice(buf);
            if let Some(i) = head[scan_from..].windows(4).position(|w| w == b"\r\n\r\n") {
                let head_end = scan_from + i + 4;
                self.reader.consume(head_end - chunk_start);
                head.truncate(head_end);
                break;
            }
            let n = buf.len();
            self.reader.consume(n);
            if head.len() > MAX_BODY_BYTES {
                return Err(ClientError::Protocol(0, "response head too large".into()));
            }
        }
        let head = String::from_utf8(head)
            .map_err(|_| ClientError::Protocol(0, "response head is not utf-8".into()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(0, format!("bad status line '{status_line}'")))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| ClientError::Protocol(status, "bad content-length".into()))?;
                    if content_length > MAX_BODY_BYTES {
                        return Err(ClientError::Protocol(status, "body too large".into()));
                    }
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let text = String::from_utf8(body)
            .map_err(|_| ClientError::Protocol(status, "body is not utf-8".into()))?;
        Ok((status, text))
    }

    fn expect_ok(&mut self, status: u16, body: Json) -> Result<Json, ClientError> {
        if status == 200 {
            // Version negotiation: a 200 body without the v1 envelope (or
            // with a future version) is a protocol error, not data.
            wire::check_version(&body)?;
            Ok(body)
        } else {
            let message = wire::error_from_json(&body)
                .map(|e| e.detail)
                .unwrap_or_else(|_| body.encode());
            Err(ClientError::Protocol(status, message))
        }
    }

    /// `GET /healthz`; returns the reported epoch.
    pub fn healthz(&mut self) -> Result<u64, ClientError> {
        let (status, body) = self.request_idempotent("GET", "/healthz", None)?;
        let body = self.expect_ok(status, body)?;
        Ok(body.field("epoch")?.as_u64()?)
    }

    /// `POST /generate` for one test-node set. Request and response both go
    /// through the direct codec: no [`Json`] tree on the warm path.
    pub fn generate(&mut self, nodes: &[usize]) -> Result<GenerationResult, ClientError> {
        let mut body = String::with_capacity(20 + 8 * nodes.len());
        body.push_str("{\"v\":");
        wire::push_u64(&mut body, wire::WIRE_VERSION);
        body.push_str(",\"nodes\":");
        wire::push_usize_array(&mut body, nodes.iter().copied());
        body.push('}');
        let (status, text) = self.request_idempotent_raw("POST", "/generate", &body)?;
        if status != 200 {
            return Err(protocol_error(status, &text));
        }
        Ok(wire::generation_from_body(text.trim_end())?)
    }

    /// `POST /generate` with a caller-prebuilt body, returning the raw
    /// `(status, body text)` without decoding the generation. For load
    /// generators: a driver hammering the server shouldn't bill response
    /// decoding to the measurement (on a shared core it directly steals
    /// server cycles). The caller's body must carry the `"v": 1` envelope.
    /// Retries like [`Client::generate`]; the caller checks the status.
    pub fn generate_text(&mut self, body_text: &str) -> Result<(u16, String), ClientError> {
        self.request_idempotent_raw("POST", "/generate", body_text)
    }

    /// `POST /generate/batch` for several test-node sets.
    pub fn generate_batch(
        &mut self,
        queries: &[Vec<usize>],
    ) -> Result<Vec<GenerationResult>, ClientError> {
        let body = wire::versioned(Json::obj([(
            "queries",
            Json::Arr(
                queries
                    .iter()
                    .map(|nodes| Json::nums(nodes.iter().copied()))
                    .collect(),
            ),
        )]));
        let (status, reply) = self.request_idempotent("POST", "/generate/batch", Some(&body))?;
        let reply = self.expect_ok(status, reply)?;
        reply
            .field("results")?
            .as_arr()?
            .iter()
            .map(|r| wire::generation_from_json(r).map_err(ClientError::from))
            .collect()
    }

    /// `POST /disturb` with a batch of edge flips. Not idempotent (a
    /// replayed disturbance flips edges twice), so never auto-retried — a
    /// transient failure here surfaces to the caller, who knows whether the
    /// flip landed.
    pub fn disturb(&mut self, flips: &[(usize, usize)]) -> Result<DisturbReport, ClientError> {
        let body = wire::versioned(Json::obj([(
            "flips",
            Json::Arr(
                flips
                    .iter()
                    .map(|&(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
                    .collect(),
            ),
        )]));
        let (status, reply) = self.request("POST", "/disturb", Some(&body))?;
        let reply = self.expect_ok(status, reply)?;
        Ok(wire::disturb_report_from_json(&reply)?)
    }

    /// `GET /stats`; returns the engine snapshot plus per-worker request
    /// counts.
    pub fn stats(&mut self) -> Result<(EngineSnapshot, Vec<usize>), ClientError> {
        let (status, reply) = self.request_idempotent("GET", "/stats", None)?;
        let reply = self.expect_ok(status, reply)?;
        let snapshot = wire::snapshot_from_json(reply.field("engine")?)?;
        let per_worker = reply
            .field("server")?
            .field("requests_per_worker")?
            .as_arr()?
            .iter()
            .map(|x| x.as_usize())
            .collect::<Result<Vec<_>, _>>()?;
        Ok((snapshot, per_worker))
    }

    /// `POST /shutdown`: asks the server to stop gracefully. Like
    /// [`Client::disturb`], never auto-retried.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let (status, body) = self.request("POST", "/shutdown", None)?;
        self.expect_ok(status, body)?;
        Ok(())
    }

    /// `POST /subscribe`: registers `nodes` as a standing witness query and
    /// upgrades this connection into a [`SubscriptionStream`]. Consumes the
    /// client — after the server's `subscribed` acknowledgement the socket
    /// carries only NDJSON update frames, never another request/response
    /// exchange. Not auto-retried (a duplicate subscription would double
    /// every later update); on failure the caller re-dials.
    pub fn subscribe(mut self, nodes: &[usize]) -> Result<SubscriptionStream, ClientError> {
        let mut body = String::with_capacity(20 + 8 * nodes.len());
        body.push_str("{\"v\":");
        wire::push_u64(&mut body, wire::WIRE_VERSION);
        body.push_str(",\"nodes\":");
        wire::push_usize_array(&mut body, nodes.iter().copied());
        body.push('}');
        let (status, text) = self.request_raw("POST", "/subscribe", &body)?;
        if status != 200 {
            return Err(protocol_error(status, &text));
        }
        // The stream head has no content-length, so `text` is empty and the
        // acknowledgement frame is the next NDJSON line on the wire.
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                0,
                "stream closed before ack".to_string(),
            ));
        }
        match wire::frame_from_body(line.trim_end())? {
            wire::Frame::Subscribed {
                subscription,
                epoch,
                nodes,
                result,
            } => Ok(SubscriptionStream {
                reader: self.reader,
                _writer: self.writer,
                subscription,
                epoch,
                nodes,
                ack: result,
                partial: String::new(),
            }),
            wire::Frame::WitnessUpdate(_) => Err(ClientError::Protocol(
                200,
                "expected subscribed frame, got witness_update".to_string(),
            )),
        }
    }
}

/// The receiving half of a witness subscription (see [`Client::subscribe`]):
/// a blocking iterator over `witness_update` frames. Dropping the stream
/// closes the socket; the server notices on its next push or read probe and
/// unregisters the subscription.
pub struct SubscriptionStream {
    reader: BufReader<TcpStream>,
    // Kept alive so the server's EOF probe sees an open peer; streams are
    // read-only after the subscribe request.
    _writer: TcpStream,
    subscription: u64,
    epoch: u64,
    nodes: Vec<usize>,
    ack: GenerationResult,
    /// Frame bytes accumulated across timed-out reads: a read timeout can
    /// strike mid-frame, and dropping the partial line would desynchronize
    /// the stream. The next call keeps appending to the same line.
    partial: String,
}

impl SubscriptionStream {
    /// Server-assigned subscription id (echoed in every update frame).
    pub fn id(&self) -> u64 {
        self.subscription
    }

    /// Graph epoch at acknowledgement time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The canonical (sorted, deduplicated) node set the server registered.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The witness generated for the node set at subscribe time — bit-exact
    /// with a `/generate` of the same nodes at [`SubscriptionStream::epoch`].
    pub fn ack(&self) -> &GenerationResult {
        &self.ack
    }

    /// Bounds how long [`SubscriptionStream::next_update`] may block waiting
    /// for a frame (`None` blocks indefinitely). A timed-out wait surfaces
    /// as [`ClientError::Io`] with a timeout kind; the stream stays usable.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Blocks for the next `witness_update` frame. `Ok(None)` means the
    /// server closed the stream (shutdown or slow-consumer drop). A timed
    /// read (see [`SubscriptionStream::set_read_timeout`]) that expires
    /// surfaces the io error without losing stream position — partially
    /// received frames resume on the next call.
    pub fn next_update(&mut self) -> Result<Option<wire::WitnessUpdate>, ClientError> {
        loop {
            // `read_line` appends, so `partial` survives timeouts intact.
            if self.reader.read_line(&mut self.partial)? == 0 {
                if !self.partial.trim().is_empty() {
                    return Err(ClientError::Protocol(
                        0,
                        "stream truncated mid-frame".to_string(),
                    ));
                }
                return Ok(None);
            }
            if !self.partial.ends_with('\n') {
                continue; // timeout-free short read: keep accumulating
            }
            let line = std::mem::take(&mut self.partial);
            if line.trim().is_empty() {
                continue;
            }
            match wire::frame_from_body(line.trim_end())? {
                wire::Frame::WitnessUpdate(update) => return Ok(Some(update)),
                wire::Frame::Subscribed { .. } => {
                    return Err(ClientError::Protocol(
                        200,
                        "unexpected second subscribed frame".to_string(),
                    ))
                }
            }
        }
    }
}
