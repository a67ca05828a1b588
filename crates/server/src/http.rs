//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! Just enough of the protocol for the witness-serving wire format: request
//! line + headers + `Content-Length`-framed bodies in, status line + fixed
//! headers + body out, with keep-alive connections. Transfer encodings,
//! multipart bodies, and the rest of HTTP are deliberately out of scope —
//! requests using them get a clean `400`, not undefined behavior.

use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Largest request body accepted, a guard against memory exhaustion from a
/// hostile peer. Generous: the biggest legitimate payload (a batch of
/// test-node sets) is a few kilobytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// A parsed request: method, path, body, and whether the peer asked for the
/// connection to close after the response.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the peer (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (`/generate`, `/stats?verbose=1`, ...). Query strings are
    /// kept verbatim; the router splits them off.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// `Connection: close` was requested.
    pub close: bool,
    /// Request deadline in milliseconds from the `x-rcw-deadline-ms` header
    /// (overrides the server's default deadline when present).
    pub deadline_ms: Option<u64>,
}

/// Why reading a request did not produce one.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Ok(Request),
    /// The peer closed the connection before sending a request line.
    Closed,
    /// The bytes were not a well-formed request; the description is safe to
    /// echo back in a 400 response.
    Malformed(String),
    /// The request exceeded a size bound (head or declared body length);
    /// answer `413` and close — nothing was allocated for it.
    TooLarge(String),
    /// The peer stalled mid-request: a read timed out (or the cumulative
    /// head deadline passed) after bytes were already consumed. Answer a
    /// best-effort `408` and close. An idle keep-alive timeout with *zero*
    /// bytes consumed is not a stall — it surfaces as an `Err` and the
    /// connection is dropped silently.
    Stalled,
}

/// Reads one request from a buffered stream.
///
/// `head_deadline` bounds the *cumulative* time spent reading the request
/// head: per-read socket timeouts cannot stop a slowloris peer that trickles
/// one header line per timeout window, but a deadline checked between lines
/// can. `None` disables the guard (in-memory parsing, tests).
pub fn read_request(
    stream: &mut impl BufRead,
    head_deadline: Option<Instant>,
) -> io::Result<ReadOutcome> {
    let mut line = String::new();
    let mut head_bytes = 0usize;
    match read_head_line(stream, &mut line, &mut head_bytes) {
        Ok(HeadLine::Len(0)) => return Ok(ReadOutcome::Closed),
        Ok(HeadLine::Len(_)) => {}
        Ok(HeadLine::TooLarge) => {
            return Ok(ReadOutcome::TooLarge("request head too large".to_string()))
        }
        // `read_line` keeps whatever it read in `line`, so an empty buffer
        // on timeout means the peer was idle, not stalled mid-request.
        Err(e) if is_timeout(&e) && !line.is_empty() => return Ok(ReadOutcome::Stalled),
        Err(e) => return Err(e),
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => return Ok(ReadOutcome::Malformed("bad request line".to_string())),
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed(format!(
            "unsupported version {version}"
        )));
    }

    let mut content_length = 0usize;
    let mut close = false;
    let mut deadline_ms = None;
    loop {
        line.clear();
        if let Some(deadline) = head_deadline {
            if Instant::now() >= deadline {
                return Ok(ReadOutcome::Stalled);
            }
        }
        match read_head_line(stream, &mut line, &mut head_bytes) {
            Ok(HeadLine::Len(0)) => {
                return Ok(ReadOutcome::Malformed("truncated headers".to_string()))
            }
            Ok(HeadLine::Len(_)) => {}
            Ok(HeadLine::TooLarge) => {
                return Ok(ReadOutcome::TooLarge("request head too large".to_string()))
            }
            Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Stalled),
            Err(e) => return Err(e),
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Ok(ReadOutcome::Malformed(format!("bad header '{trimmed}'")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match value.parse::<usize>() {
                Ok(n) if n <= MAX_BODY_BYTES => content_length = n,
                // An absurd Content-Length is rejected here, before the body
                // buffer is sized from it: the peer gets a 413, never an
                // allocation.
                Ok(_) => return Ok(ReadOutcome::TooLarge("body too large".to_string())),
                Err(_) => return Ok(ReadOutcome::Malformed("bad content-length".to_string())),
            },
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "x-rcw-deadline-ms" => match value.parse::<u64>() {
                Ok(ms) => deadline_ms = Some(ms),
                Err(_) => return Ok(ReadOutcome::Malformed("bad x-rcw-deadline-ms".to_string())),
            },
            "transfer-encoding" => {
                return Ok(ReadOutcome::Malformed(
                    "transfer-encoding not supported".to_string(),
                ))
            }
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        match io::Read::read_exact(stream, &mut body) {
            Ok(()) => {}
            // The head arrived but the declared body never did: a stalled
            // (or fault-injected) peer, not a transport failure.
            Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Stalled),
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Ok(Request {
        method,
        path,
        body,
        close,
        deadline_ms,
    }))
}

/// What [`FrameBuf::try_take`] found in the buffered bytes. Mirrors
/// [`ReadOutcome`] minus the transport-level cases: the nonblocking event
/// loop owns the socket, so `Closed`/`Stalled` are its business (EOF and
/// idle deadlines), not the framer's.
#[derive(Debug)]
pub enum FrameOutcome {
    /// A complete request was buffered; its bytes have been consumed.
    Complete(Request),
    /// The buffered bytes are a well-formed prefix; feed more.
    Partial,
    /// The bytes cannot become a request; answer `400` and close.
    Malformed(String),
    /// A size bound was exceeded (head or declared body); answer `413` and
    /// close — the body is never buffered past its declared bound check.
    TooLarge(String),
}

/// Incremental request framer for nonblocking sockets: the event loop
/// appends whatever bytes `read` returned and asks for a complete request.
/// Semantics match [`read_request`] exactly (same limits, same header
/// handling, same rejections), but no call ever blocks. Pipelined bytes
/// beyond the first request stay buffered for the next [`FrameBuf::try_take`].
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty framer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Whether any bytes are buffered (a non-empty framer means the peer is
    /// mid-request, which is what distinguishes a stall from idleness).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Tries to take one complete request off the front of the buffer.
    pub fn try_take(&mut self) -> FrameOutcome {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() > MAX_HEAD_BYTES {
                return FrameOutcome::TooLarge("request head too large".to_string());
            }
            return FrameOutcome::Partial;
        };
        if head_end > MAX_HEAD_BYTES {
            return FrameOutcome::TooLarge("request head too large".to_string());
        }
        let head = match std::str::from_utf8(&self.buf[..head_end]) {
            Ok(head) => head,
            Err(_) => return FrameOutcome::Malformed("head is not utf-8".to_string()),
        };
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
            _ => return FrameOutcome::Malformed("bad request line".to_string()),
        };
        if !version.starts_with("HTTP/1.") {
            return FrameOutcome::Malformed(format!("unsupported version {version}"));
        }
        let mut content_length = 0usize;
        let mut close = false;
        let mut deadline_ms = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return FrameOutcome::Malformed(format!("bad header '{line}'"));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            match name.as_str() {
                "content-length" => match value.parse::<usize>() {
                    Ok(n) if n <= MAX_BODY_BYTES => content_length = n,
                    Ok(_) => return FrameOutcome::TooLarge("body too large".to_string()),
                    Err(_) => return FrameOutcome::Malformed("bad content-length".to_string()),
                },
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-rcw-deadline-ms" => match value.parse::<u64>() {
                    Ok(ms) => deadline_ms = Some(ms),
                    Err(_) => return FrameOutcome::Malformed("bad x-rcw-deadline-ms".to_string()),
                },
                "transfer-encoding" => {
                    return FrameOutcome::Malformed("transfer-encoding not supported".to_string())
                }
                _ => {}
            }
        }
        let total = head_end + content_length;
        if self.buf.len() < total {
            return FrameOutcome::Partial;
        }
        let body = self.buf[head_end..total].to_vec();
        self.buf.drain(..total);
        FrameOutcome::Complete(Request {
            method,
            path,
            body,
            close,
            deadline_ms,
        })
    }
}

/// Index one past the blank line ending the request head, accepting both
/// `\r\n\r\n` and bare `\n\n` terminators (the blocking parser's `read_line`
/// accepted either).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i + 1 < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Outcome of reading one head line, separating the size guard from
/// transport errors.
enum HeadLine {
    Len(usize),
    TooLarge,
}

/// `read_line` with a cumulative size guard; returns the bytes read.
fn read_head_line(
    stream: &mut impl BufRead,
    line: &mut String,
    head_bytes: &mut usize,
) -> io::Result<HeadLine> {
    let n = stream.read_line(line)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Ok(HeadLine::TooLarge);
    }
    Ok(HeadLine::Len(n))
}

/// Whether an I/O error is a read/write timeout. Both kinds appear in the
/// wild: Unix sockets report `WouldBlock`, Windows reports `TimedOut`.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A response ready to be written: status code and JSON body.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always `application/json` on this wire).
    pub body: String,
}

/// The v1 error vocabulary: the stable machine-readable `code` and whether
/// retrying the identical request may succeed, keyed by status. Kept in one
/// table so the wire reference in the README and the server can't drift.
pub fn error_class(status: u16) -> (&'static str, bool) {
    match status {
        400 => ("bad_request", false),
        404 => ("not_found", false),
        405 => ("method_not_allowed", false),
        408 => ("timeout", true),
        413 => ("too_large", false),
        429 => ("overloaded", true),
        500 => ("internal", true),
        503 => ("unavailable", true),
        _ => ("error", false),
    }
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn ok(body: String) -> Self {
        Response { status: 200, body }
    }

    /// An error response carrying the uniform v1 body
    /// `{"v": 1, "error": {"code": .., "detail": .., "retryable": ..}}`,
    /// with `code`/`retryable` derived from the status via [`error_class`].
    pub fn error(status: u16, detail: &str) -> Self {
        let (code, retryable) = error_class(status);
        Response::error_coded(status, code, detail, retryable)
    }

    /// An error response with an explicit code overriding the status-derived
    /// one (`bad_version` rides a plain 400).
    pub fn error_coded(status: u16, code: &str, detail: &str, retryable: bool) -> Self {
        Response {
            status,
            body: crate::wire::error_to_body(code, detail, retryable),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a response. The body is newline-terminated so `nc`/`curl` sessions
/// stay line-oriented.
///
/// Head and body go out in a **single** `write_all`: two small writes would
/// land as two TCP segments, and Nagle's algorithm holds the second until
/// the peer ACKs the first — against a delayed-ACK peer that is a ~40ms
/// stall per response (the sockets also set `TCP_NODELAY`, but one syscall
/// per response is cheaper regardless).
pub fn write_response(stream: &mut impl Write, response: &Response, close: bool) -> io::Result<()> {
    stream.write_all(&encode_response(response, close))?;
    stream.flush()
}

/// The exact bytes [`write_response`] would send: head + newline-terminated
/// body. Exposed so the fault-injection layer can write a deliberately
/// truncated prefix of a real response.
pub fn encode_response(response: &Response, close: bool) -> Vec<u8> {
    // Built head-first into a single buffer: the body is copied exactly once
    // (hot responses carry ~500-byte witness payloads, so an extra clone per
    // response is measurable at saturation).
    let needs_newline = !response.body.ends_with('\n');
    let body_len = response.body.len() + usize::from(needs_newline);
    let mut message = String::with_capacity(112 + body_len);
    message.push_str("HTTP/1.1 ");
    crate::wire::push_u64(&mut message, response.status as u64);
    message.push(' ');
    message.push_str(reason(response.status));
    message.push_str("\r\ncontent-type: application/json\r\ncontent-length: ");
    crate::wire::push_u64(&mut message, body_len as u64);
    message.push_str("\r\nconnection: ");
    message.push_str(if close { "close" } else { "keep-alive" });
    message.push_str("\r\n\r\n");
    message.push_str(&response.body);
    if needs_newline {
        message.push('\n');
    }
    message.into_bytes()
}

/// The response head opening a subscription stream: `200` with **no**
/// `Content-Length` — the body is an unbounded sequence of NDJSON frames and
/// end-of-stream is signalled by connection close (the one HTTP/1.1 framing
/// that needs no length up front). Frames follow via [`encode_stream_frame`].
pub fn encode_stream_head() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n".to_vec()
}

/// One NDJSON stream frame: the encoded frame body plus the newline
/// delimiter.
pub fn encode_stream_frame(frame: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(frame.len() + 1);
    bytes.extend_from_slice(frame.as_bytes());
    bytes.push(b'\n');
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::time::Duration;

    fn parse(bytes: &[u8]) -> ReadOutcome {
        read_request(&mut BufReader::new(bytes), None).unwrap()
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /generate HTTP/1.1\r\ncontent-length: 15\r\n\r\n{\"nodes\":[1,2]}";
        match parse(raw) {
            ReadOutcome::Ok(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/generate");
                assert_eq!(req.body, b"{\"nodes\":[1,2]}");
                assert!(!req.close);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_a_bodyless_get_and_connection_close() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse(raw) {
            ReadOutcome::Ok(req) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/healthz");
                assert!(req.body.is_empty());
                assert!(req.close);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn deadline_header_is_parsed_and_validated() {
        let raw = b"POST /generate HTTP/1.1\r\nx-rcw-deadline-ms: 250\r\ncontent-length: 0\r\n\r\n";
        match parse(raw) {
            ReadOutcome::Ok(req) => assert_eq!(req.deadline_ms, Some(250)),
            other => panic!("unexpected: {other:?}"),
        }
        let absent = b"GET /healthz HTTP/1.1\r\n\r\n";
        match parse(absent) {
            ReadOutcome::Ok(req) => assert_eq!(req.deadline_ms, None),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nx-rcw-deadline-ms: soon\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn eof_is_closed_and_garbage_is_malformed() {
        assert!(matches!(parse(b""), ReadOutcome::Closed));
        assert!(matches!(
            parse(b"NOT HTTP\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2.0\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\ncontent-length: zebra\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn oversized_requests_are_too_large_not_malformed() {
        // Absurd declared body: rejected before any allocation, as 413.
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n"),
            ReadOutcome::TooLarge(_)
        ));
        // Oversized head: one giant header blows the cumulative head bound.
        let mut head = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        head.resize(MAX_HEAD_BYTES + 64, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&head), ReadOutcome::TooLarge(_)));
    }

    #[test]
    fn head_deadline_in_the_past_stalls_a_partial_request() {
        // The request line parses, then the deadline check fires before the
        // next header line.
        let bytes = b"GET / HTTP/1.1\r\nx-slow: 1\r\n\r\n";
        let outcome = read_request(
            &mut BufReader::new(&bytes[..]),
            Some(Instant::now() - Duration::from_secs(1)),
        )
        .unwrap();
        assert!(matches!(outcome, ReadOutcome::Stalled));
    }

    #[test]
    fn frame_buf_matches_blocking_parser_byte_by_byte() {
        // Feeding one byte at a time must stay Partial until the exact final
        // byte, then yield the same request the blocking parser produces.
        let raw = b"POST /generate HTTP/1.1\r\nx-rcw-deadline-ms: 40\r\ncontent-length: 15\r\n\r\n{\"nodes\":[1,2]}";
        let mut frame = FrameBuf::new();
        for (i, b) in raw.iter().enumerate() {
            assert!(
                matches!(frame.try_take(), FrameOutcome::Partial),
                "byte {i}: complete too early"
            );
            frame.extend(std::slice::from_ref(b));
        }
        match frame.try_take() {
            FrameOutcome::Complete(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/generate");
                assert_eq!(req.body, b"{\"nodes\":[1,2]}");
                assert_eq!(req.deadline_ms, Some(40));
                assert!(!req.close);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(frame.is_empty());
    }

    #[test]
    fn frame_buf_keeps_pipelined_bytes_for_the_next_take() {
        let mut frame = FrameBuf::new();
        frame.extend(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        match frame.try_take() {
            FrameOutcome::Complete(req) => assert_eq!(req.path, "/healthz"),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(!frame.is_empty(), "second request still buffered");
        match frame.try_take() {
            FrameOutcome::Complete(req) => {
                assert_eq!(req.path, "/stats");
                assert!(req.close);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(frame.try_take(), FrameOutcome::Partial));
    }

    #[test]
    fn frame_buf_rejects_what_read_request_rejects() {
        let cases: &[(&[u8], bool)] = &[
            (b"NOT HTTP AT ALL\r\n\r\n", false),
            (b"GET / HTTP/2.0\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\ncontent-length: zebra\r\n\r\n", false),
            (
                b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                false,
            ),
            (
                b"GET / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
                true,
            ),
        ];
        for &(raw, too_large) in cases {
            let mut frame = FrameBuf::new();
            frame.extend(raw);
            match frame.try_take() {
                FrameOutcome::Malformed(_) if !too_large => {}
                FrameOutcome::TooLarge(_) if too_large => {}
                other => panic!("{raw:?}: unexpected {other:?}"),
            }
        }
        // Oversized head with no terminator in sight trips the bound early.
        let mut frame = FrameBuf::new();
        let mut head = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        head.resize(MAX_HEAD_BYTES + 64, b'a');
        frame.extend(&head);
        assert!(matches!(frame.try_take(), FrameOutcome::TooLarge(_)));
    }

    #[test]
    fn frame_buf_accepts_bare_newline_terminators() {
        let mut frame = FrameBuf::new();
        frame.extend(b"GET /healthz HTTP/1.1\nconnection: close\n\n");
        match frame.try_take() {
            FrameOutcome::Complete(req) => {
                assert_eq!(req.path, "/healthz");
                assert!(req.close);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn response_writer_frames_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{\"ok\":true}".to_string()), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 12\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}\n"));
    }
}
