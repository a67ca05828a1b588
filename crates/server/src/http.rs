//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! Just enough of the protocol for the witness-serving wire format: request
//! line + headers + `Content-Length`-framed bodies in, status line + fixed
//! headers + body out, with keep-alive connections. Transfer encodings,
//! multipart bodies, and the rest of HTTP are deliberately out of scope —
//! requests using them get a clean `400`, not undefined behavior.

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

/// What [`FrameBuf::try_take`] found in the buffered bytes. Transport-level
/// cases are not the framer's: the nonblocking event loop owns the socket,
/// so EOF, idle keep-alive timeouts and mid-request stalls (answered `408`)
/// are its business.
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

/// Incremental request framer for nonblocking sockets, and the server's only
/// one: the event loop appends whatever bytes `read` returned and asks for a
/// complete request. No call ever blocks. Pipelined bytes beyond the first
/// request stay buffered for the next [`FrameBuf::try_take`].
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
/// `\r\n\r\n` and bare `\n\n` terminators.
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

/// The bytes of a response: head + newline-terminated body (so `nc`/`curl`
/// sessions stay line-oriented). The fault-injection layer writes a
/// deliberately truncated prefix of them.
///
/// Head and body share **one** buffer, so they leave in one write: two small
/// writes would land as two TCP segments, and Nagle's algorithm holds the second until the
/// peer ACKs the first — against a delayed-ACK peer that is a ~40ms stall
/// per response.
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

    /// The framer's verdict on `bytes` delivered in one read.
    fn take(bytes: &[u8]) -> FrameOutcome {
        let mut frame = FrameBuf::new();
        frame.extend(bytes);
        frame.try_take()
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /generate HTTP/1.1\r\ncontent-length: 15\r\n\r\n{\"nodes\":[1,2]}";
        match take(raw) {
            FrameOutcome::Complete(req) => {
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
        match take(raw) {
            FrameOutcome::Complete(req) => {
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
        match take(raw) {
            FrameOutcome::Complete(req) => assert_eq!(req.deadline_ms, Some(250)),
            other => panic!("unexpected: {other:?}"),
        }
        match take(b"GET /healthz HTTP/1.1\r\n\r\n") {
            FrameOutcome::Complete(req) => assert_eq!(req.deadline_ms, None),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(
            take(b"GET / HTTP/1.1\r\nx-rcw-deadline-ms: soon\r\n\r\n"),
            FrameOutcome::Malformed(_)
        ));
    }

    #[test]
    fn nothing_buffered_is_partial_and_garbage_is_malformed() {
        // EOF before a request is the event loop's business: the framer
        // just has nothing to take yet.
        let mut frame = FrameBuf::new();
        assert!(matches!(frame.try_take(), FrameOutcome::Partial));
        assert!(frame.is_empty());
        let malformed: &[&[u8]] = &[
            b"NOT HTTP\r\n\r\n",
            b"NOT HTTP AT ALL\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\ncontent-length: zebra\r\n\r\n",
            b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nno colon here\r\n\r\n",
        ];
        for &raw in malformed {
            match take(raw) {
                FrameOutcome::Malformed(_) => {}
                other => panic!("{raw:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_requests_are_too_large_not_malformed() {
        // Absurd declared body: rejected from the head alone, as 413, before
        // any body byte is buffered.
        assert!(matches!(
            take(b"GET / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n"),
            FrameOutcome::TooLarge(_)
        ));
        assert!(matches!(
            take(
                format!(
                    "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes()
            ),
            FrameOutcome::TooLarge(_)
        ));
        // Oversized head: one giant header blows the head bound, whether
        // its terminator has arrived or not.
        let mut head = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        head.resize(MAX_HEAD_BYTES + 64, b'a');
        assert!(matches!(take(&head), FrameOutcome::TooLarge(_)));
        head.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(take(&head), FrameOutcome::TooLarge(_)));
    }

    #[test]
    fn a_partial_head_stays_buffered_until_its_blank_line() {
        // A non-empty framer is what the event loop reads as a peer stalled
        // mid-request (answered 408 once its deadline passes).
        let mut frame = FrameBuf::new();
        frame.extend(b"GET / HTTP/1.1\r\nx-slow: 1\r\n");
        assert!(matches!(frame.try_take(), FrameOutcome::Partial));
        assert!(!frame.is_empty());
        frame.extend(b"\r\n");
        assert!(matches!(frame.try_take(), FrameOutcome::Complete(_)));
        assert!(frame.is_empty());
    }

    #[test]
    fn frame_buf_completes_on_the_final_byte() {
        // Feeding one byte at a time must stay Partial until the exact final
        // byte, then yield the whole request.
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
    fn frame_buf_accepts_bare_newline_terminators() {
        match take(b"GET /healthz HTTP/1.1\nconnection: close\n\n") {
            FrameOutcome::Complete(req) => {
                assert_eq!(req.path, "/healthz");
                assert!(req.close);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn encoded_responses_frame_with_content_length() {
        let bytes = encode_response(&Response::ok("{\"ok\":true}".to_string()), false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 12\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}\n"));
    }
}
