//! Spans recorded around the benchmark's own calls into each layer. Nothing
//! inside the program is instrumented: a span starts before the benchmark
//! calls a public function (or sends a request) and ends when it returns.

use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` is `0` for a root span; spans of one request or
/// one probe share their root's `id` as `parent`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Ids are unique across buffers that were given
/// distinct `lane`s.
pub struct Tracer {
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, lane: u64) -> Tracer {
        Tracer {
            origin,
            next: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span that started at `start` and returns its id.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant) -> u64 {
        let end_ns = self.now_ns();
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> u64 {
        let id = self.next;
        self.next += 1;
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent: 0,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: 0,
        });
        id
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u64) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = end_ns;
        }
    }
}

/// Writes spans as JSON lines (`id`, `parent`, `name`, `start_ns`, `end_ns`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
