//! The line-oriented JSON wire format.
//!
//! The workspace builds without external crates, so both halves of the codec
//! are hand-rolled here: a small [`Json`] value type with a recursive-descent
//! parser and serializer, and on top of it the first public, stable
//! serialization of the domain types a serving layer exchanges —
//! [`Witness`], [`Disturbance`], [`EngineStats`] / [`EngineSnapshot`],
//! [`DisturbReport`], and generation results.
//!
//! Encodings are stable by construction: object keys are written in a fixed
//! order, integers are emitted without a fractional part, and every decoder
//! rejects malformed input with a positioned [`WireError`] instead of
//! panicking — the server feeds it untrusted bytes.

use rcw_core::{DisturbReport, EngineSnapshot, EngineStats, GenerationResult, WitnessLevel};
use rcw_core::{GenerationStats, RepairOutcome, Witness};
use rcw_graph::{Disturbance, EdgeSubgraph, NodeId};
use std::fmt;
use std::time::Duration;

/// Maximum nesting depth the parser accepts — far above anything the wire
/// format produces, low enough that hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 64;

/// The wire protocol version this build speaks. Every HTTP body — request
/// and response, success and error — carries it as a top-level `"v"` field;
/// body decoders reject missing or unsupported versions with a typed error.
/// Type-level codecs ([`witness_to_json`], [`generation_to_json`], …) stay
/// unversioned: the envelope belongs to the transport body, not the types.
pub const WIRE_VERSION: u64 = 1;

/// Wraps a body object in the v1 envelope by prepending `"v": 1`.
pub fn versioned(body: Json) -> Json {
    match body {
        Json::Obj(mut fields) => {
            fields.insert(0, ("v".to_string(), Json::num(WIRE_VERSION)));
            Json::Obj(fields)
        }
        other => Json::Obj(vec![
            ("v".to_string(), Json::num(WIRE_VERSION)),
            ("body".to_string(), other),
        ]),
    }
}

/// Typed error for an unsupported `"v"` value.
fn unsupported_version(v: u64) -> WireError {
    WireError::decode(format!(
        "unsupported wire version {v} (this build speaks v{WIRE_VERSION})"
    ))
}

/// Checks a parsed body's version envelope: the top-level `"v"` field must
/// be present and equal to [`WIRE_VERSION`]. Missing and future versions are
/// both typed decode errors, so a v2 peer gets a deterministic rejection
/// instead of a field-by-field parse failure.
pub fn check_version(body: &Json) -> Result<(), WireError> {
    let v = body.field("v")?.as_u64()?;
    if v != WIRE_VERSION {
        return Err(unsupported_version(v));
    }
    Ok(())
}

/// Error produced when parsing or decoding wire data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset of the offending input, when known.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    fn new(pos: usize, message: impl Into<String>) -> Self {
        WireError {
            pos,
            message: message.into(),
        }
    }

    /// A decode-level error (no meaningful byte position).
    pub fn decode(message: impl Into<String>) -> Self {
        WireError::new(0, message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for WireError {}

/// A JSON value. Objects preserve insertion order so encodings are stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (must be a single value, whole input).
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(WireError::new(p.pos, "trailing characters after value"));
        }
        Ok(v)
    }

    /// Serializes the value to compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    push_i64(out, *x as i64);
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field lookup, with a decode error naming the key.
    pub fn field(&self, key: &str) -> Result<&Json, WireError> {
        self.get(key)
            .ok_or_else(|| WireError::decode(format!("missing field '{key}'")))
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Result<f64, WireError> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(WireError::decode(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as a non-negative integer (rejects fractional numbers).
    pub fn as_u64(&self) -> Result<u64, WireError> {
        let x = self.as_f64()?;
        if x < 0.0 || x.fract() != 0.0 || x > 9.0e15 {
            return Err(WireError::decode(format!(
                "expected non-negative integer, got {x}"
            )));
        }
        Ok(x as u64)
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, WireError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, WireError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(WireError::decode(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, WireError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(WireError::decode(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], WireError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(WireError::decode(format!("expected array, got {other:?}"))),
        }
    }

    /// Convenience: an object from key–value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience: a number from any unsigned integer.
    pub fn num(x: impl Into<u64>) -> Json {
        Json::Num(x.into() as f64)
    }

    /// Convenience: an array of `usize` values.
    pub fn nums(xs: impl IntoIterator<Item = usize>) -> Json {
        Json::Arr(xs.into_iter().map(|x| Json::Num(x as f64)).collect())
    }
}

/// Appends a decimal integer without any intermediate allocation (the
/// `format!` path costs a heap `String` per number, which dominates encode
/// time on number-heavy payloads like witnesses).
fn push_i64(out: &mut String, x: i64) {
    if x < 0 {
        out.push('-');
    }
    push_u64(out, x.unsigned_abs());
}

pub(crate) fn push_u64(out: &mut String, mut x: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Copy maximal escape-free runs in one go; every byte that needs an
    // escape is ASCII, so byte positions are valid char boundaries.
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[start..i]);
        match escape {
            Some(text) => out.push_str(text),
            None => out.push_str(&format!("\\u{:04x}", b)),
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::new(
                self.pos,
                format!("expected '{}'", b as char),
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::new(self.pos, "nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(WireError::new(self.pos, "unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(WireError::new(
                self.pos,
                format!("unexpected character '{}'", c as char),
            )),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(WireError::new(self.pos, format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Fast path: a plain short integer run (the overwhelming case on
        // this wire — node ids, edge endpoints, counters) skips the std
        // float parser entirely.
        let digits_start = self.pos;
        let mut int_val: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            int_val = int_val * 10 + (b - b'0') as u64;
            self.pos += 1;
            if self.pos - digits_start > 15 {
                break;
            }
        }
        let plain_int = self.pos > digits_start
            && self.pos - digits_start <= 15
            && !matches!(
                self.peek(),
                Some(b'.' | b'e' | b'E' | b'+' | b'-' | b'0'..=b'9')
            );
        if plain_int {
            let x = int_val as f64;
            return Ok(Json::Num(if negative { -x } else { x }));
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| WireError::new(start, "invalid number bytes"))?;
        let x: f64 = text
            .parse()
            .map_err(|_| WireError::new(start, format!("invalid number '{text}'")))?;
        if !x.is_finite() {
            return Err(WireError::new(start, "non-finite number"));
        }
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(WireError::new(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(WireError::new(self.pos, "truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| WireError::new(self.pos, "invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| WireError::new(self.pos, "invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this wire
                            // format; reject them instead of mis-decoding.
                            let c = char::from_u32(code).ok_or_else(|| {
                                WireError::new(self.pos, "unsupported \\u code point")
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(WireError::new(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the maximal run up to the next quote or escape in
                    // one validation pass. The stop bytes are ASCII, so in
                    // valid UTF-8 the run never ends mid-character; a lone
                    // control byte still moves one scalar at a time.
                    let rest = &self.bytes[self.pos..];
                    let mut n = 0;
                    while n < rest.len() && rest[n] != b'"' && rest[n] != b'\\' && rest[n] >= 0x20 {
                        n += 1;
                    }
                    let n = n.max(utf8_len(rest[0])).min(rest.len());
                    let chunk = std::str::from_utf8(&rest[..n])
                        .map_err(|_| WireError::new(self.pos, "invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(WireError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(WireError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Direct struct-level parsing (hot serving path)
//
// The tree codec above allocates a `Json` node per value — fine for control
// endpoints, but a warm `/generate` answer is ~100 numbers and the tree walk
// costs more than the engine's store hit. These readers decode the known
// response shapes straight into their structs, one `Vec` per array and zero
// per-number work beyond the digits.
// ---------------------------------------------------------------------------

impl<'a> Parser<'a> {
    /// Walks an object's fields, handing each key to `visit` with the parser
    /// positioned at the value. Keys must be escape-free (ours always are).
    fn fields(
        &mut self,
        mut visit: impl FnMut(&mut Self, &str) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.raw_str()?;
            self.skip_ws();
            self.expect(b':')?;
            visit(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(WireError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }

    /// A quoted string borrowed from the input. Rejects escapes instead of
    /// decoding them: no key or enum value on this wire ever needs one.
    fn raw_str(&mut self) -> Result<&'a str, WireError> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.bytes;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(WireError::new(self.pos, "unterminated string")),
                Some(b'"') => {
                    let end = self.pos;
                    self.pos += 1;
                    return std::str::from_utf8(&bytes[start..end])
                        .map_err(|_| WireError::new(start, "invalid utf-8"));
                }
                Some(b'\\') => {
                    return Err(WireError::new(self.pos, "unexpected escape in bare string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// A non-negative integer value (rejects floats and exponents).
    fn usize_value(&mut self) -> Result<usize, WireError> {
        self.skip_ws();
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            value = value * 10 + (b - b'0') as u64;
            self.pos += 1;
            if self.pos - start > 15 {
                return Err(WireError::new(start, "integer too large"));
            }
        }
        if self.pos == start {
            return Err(WireError::new(start, "expected non-negative integer"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(WireError::new(start, "expected integer, got float"));
        }
        Ok(value as usize)
    }

    fn bool_value(&mut self) -> Result<bool, WireError> {
        self.skip_ws();
        match self.peek() {
            Some(b't') => self.literal("true", Json::Null).map(|_| true),
            Some(b'f') => self.literal("false", Json::Null).map(|_| false),
            _ => Err(WireError::new(self.pos, "expected bool")),
        }
    }

    /// The `"v"` envelope value: an integer equal to [`WIRE_VERSION`].
    fn version_value(&mut self) -> Result<u64, WireError> {
        let v = self.usize_value()? as u64;
        if v != WIRE_VERSION {
            return Err(unsupported_version(v));
        }
        Ok(v)
    }

    /// Iterates a JSON array, calling `visit` once per element.
    fn elements(
        &mut self,
        mut visit: impl FnMut(&mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.skip_ws();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            visit(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(WireError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn usize_array(&mut self) -> Result<Vec<usize>, WireError> {
        let mut out = Vec::new();
        self.elements(|p| {
            out.push(p.usize_value()?);
            Ok(())
        })?;
        Ok(out)
    }

    /// An array of `[u, v]` pairs, with no per-pair tree nodes.
    fn edge_array(&mut self) -> Result<Vec<(usize, usize)>, WireError> {
        let mut out = Vec::new();
        self.elements(|p| {
            p.skip_ws();
            p.expect(b'[')?;
            let u = p.usize_value()?;
            p.skip_ws();
            p.expect(b',')?;
            let v = p.usize_value()?;
            p.skip_ws();
            p.expect(b']')?;
            out.push((u, v));
            Ok(())
        })?;
        Ok(out)
    }

    fn witness_value(&mut self) -> Result<Witness, WireError> {
        let (mut nodes, mut edges, mut test_nodes, mut labels) = (None, None, None, None);
        self.fields(|p, key| {
            match key {
                "nodes" => nodes = Some(p.usize_array()?),
                "edges" => edges = Some(p.edge_array()?),
                "test_nodes" => test_nodes = Some(p.usize_array()?),
                "labels" => labels = Some(p.usize_array()?),
                other => return Err(WireError::decode(format!("unexpected field '{other}'"))),
            }
            Ok(())
        })?;
        witness_from_parts(
            required(nodes, "nodes")?,
            required(edges, "edges")?,
            required(test_nodes, "test_nodes")?,
            required(labels, "labels")?,
        )
    }

    fn generation_stats_value(&mut self) -> Result<GenerationStats, WireError> {
        let (mut inference_calls, mut disturbances_verified, mut expand_rounds, mut elapsed_us) =
            (None, None, None, None);
        self.fields(|p, key| {
            match key {
                "inference_calls" => inference_calls = Some(p.usize_value()?),
                "disturbances_verified" => disturbances_verified = Some(p.usize_value()?),
                "expand_rounds" => expand_rounds = Some(p.usize_value()?),
                "elapsed_us" => elapsed_us = Some(p.usize_value()?),
                other => return Err(WireError::decode(format!("unexpected field '{other}'"))),
            }
            Ok(())
        })?;
        Ok(GenerationStats {
            inference_calls: required(inference_calls, "inference_calls")?,
            disturbances_verified: required(disturbances_verified, "disturbances_verified")?,
            expand_rounds: required(expand_rounds, "expand_rounds")?,
            elapsed: Duration::from_micros(required(elapsed_us, "elapsed_us")? as u64),
        })
    }

    fn generation_value(&mut self) -> Result<GenerationResult, WireError> {
        let (mut witness, mut level, mut nontrivial, mut stale, mut stats) =
            (None, None, None, None, None);
        self.fields(|p, key| {
            match key {
                "witness" => witness = Some(p.witness_value()?),
                "level" => level = Some(level_from_str(p.raw_str()?)?),
                "nontrivial" => nontrivial = Some(p.bool_value()?),
                "stale" => stale = Some(p.bool_value()?),
                "stats" => stats = Some(p.generation_stats_value()?),
                other => return Err(WireError::decode(format!("unexpected field '{other}'"))),
            }
            Ok(())
        })?;
        Ok(GenerationResult {
            witness: required(witness, "witness")?,
            level: required(level, "level")?,
            nontrivial: required(nontrivial, "nontrivial")?,
            stale: required(stale, "stale")?,
            stats: required(stats, "stats")?,
        })
    }
}

fn required<T>(value: Option<T>, key: &str) -> Result<T, WireError> {
    value.ok_or_else(|| WireError::decode(format!("missing field '{key}'")))
}

/// Decodes a `/generate` response body (the v1 envelope around a
/// [`GenerationResult`]'s fields) straight from its wire text, bypassing the
/// [`Json`] tree. Accepts exactly what [`generation_to_body`] produces,
/// fields in any order; missing or unsupported `"v"` is a typed error;
/// malformed input errors, never panics.
pub fn generation_from_body(text: &str) -> Result<GenerationResult, WireError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut version = None;
    let (mut witness, mut level, mut nontrivial, mut stale, mut stats) =
        (None, None, None, None, None);
    p.fields(|p, key| {
        match key {
            "v" => version = Some(p.version_value()?),
            "witness" => witness = Some(p.witness_value()?),
            "level" => level = Some(level_from_str(p.raw_str()?)?),
            "nontrivial" => nontrivial = Some(p.bool_value()?),
            "stale" => stale = Some(p.bool_value()?),
            "stats" => stats = Some(p.generation_stats_value()?),
            other => return Err(WireError::decode(format!("unexpected field '{other}'"))),
        }
        Ok(())
    })?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(WireError::new(p.pos, "trailing characters after value"));
    }
    required(version, "v")?;
    Ok(GenerationResult {
        witness: required(witness, "witness")?,
        level: required(level, "level")?,
        nontrivial: required(nontrivial, "nontrivial")?,
        stale: required(stale, "stale")?,
        stats: required(stats, "stats")?,
    })
}

/// Decodes a `/generate` (or `/subscribe`) request body
/// (`{"v": 1, "nodes": [..]}`) straight into its node list, bypassing the
/// [`Json`] tree. Strict: exactly the envelope plus the one field, plain
/// non-negative integers, nothing trailing. The serving layer uses this as
/// the fast path and falls back to the tree decoder on any error so
/// malformed bodies keep their established 400 messages.
pub fn nodes_from_body(text: &str) -> Result<Vec<usize>, WireError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut version = None;
    let mut nodes = None;
    p.fields(|p, key| {
        match key {
            "v" => version = Some(p.version_value()?),
            "nodes" => nodes = Some(p.usize_array()?),
            other => return Err(WireError::decode(format!("unexpected field '{other}'"))),
        }
        Ok(())
    })?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(WireError::new(p.pos, "trailing characters after value"));
    }
    required(version, "v")?;
    required(nodes, "nodes")
}

pub(crate) fn push_usize_array(out: &mut String, xs: impl IntoIterator<Item = usize>) {
    out.push('[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, x as u64);
    }
    out.push(']');
}

/// Serializes a `/generate` response body straight to its wire text: the v1
/// envelope wrapping a [`GenerationResult`]'s fields — byte-identical to
/// `versioned(generation_to_json(r)).encode()` (pinned by a test) without
/// building the tree.
pub fn generation_to_body(r: &GenerationResult) -> String {
    let mut out = String::with_capacity(
        200 + 8 * (r.witness.subgraph.nodes().len() + 2 * r.witness.test_nodes.len())
            + 12 * r.witness.subgraph.edges().len(),
    );
    out.push_str("{\"v\":");
    push_u64(&mut out, WIRE_VERSION);
    out.push(',');
    push_generation_fields(&mut out, r);
    out.push('}');
    out
}

/// Writes a [`GenerationResult`]'s fields (`"witness":..,"level":..,..`,
/// no surrounding braces, no envelope) — byte-identical to the interior of
/// `generation_to_json(r).encode()`. Shared by [`generation_to_body`] and the
/// subscription frame encoders, which nest the *unversioned* result object.
pub(crate) fn push_generation_fields(out: &mut String, r: &GenerationResult) {
    let w = &r.witness;
    out.push_str("\"witness\":{\"nodes\":");
    push_usize_array(out, w.subgraph.nodes().iter().copied());
    out.push_str(",\"edges\":[");
    for (i, (u, v)) in w.subgraph.edges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_u64(out, u as u64);
        out.push(',');
        push_u64(out, v as u64);
        out.push(']');
    }
    out.push_str("],\"test_nodes\":");
    push_usize_array(out, w.test_nodes.iter().copied());
    out.push_str(",\"labels\":");
    push_usize_array(out, w.labels.iter().copied());
    out.push_str("},\"level\":\"");
    out.push_str(level_to_str(r.level));
    out.push_str("\",\"nontrivial\":");
    out.push_str(if r.nontrivial { "true" } else { "false" });
    out.push_str(",\"stale\":");
    out.push_str(if r.stale { "true" } else { "false" });
    out.push_str(",\"stats\":{\"inference_calls\":");
    push_u64(out, r.stats.inference_calls as u64);
    out.push_str(",\"disturbances_verified\":");
    push_u64(out, r.stats.disturbances_verified as u64);
    out.push_str(",\"expand_rounds\":");
    push_u64(out, r.stats.expand_rounds as u64);
    out.push_str(",\"elapsed_us\":");
    push_u64(out, r.stats.elapsed.as_micros() as u64);
    out.push('}');
}

// ---------------------------------------------------------------------------
// Domain encodings
// ---------------------------------------------------------------------------

fn edges_to_json(edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Json {
    Json::Arr(
        edges
            .into_iter()
            .map(|(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
            .collect(),
    )
}

fn edges_from_json(value: &Json) -> Result<Vec<(NodeId, NodeId)>, WireError> {
    value
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(WireError::decode("edge must be a [u, v] pair"));
            }
            Ok((pair[0].as_usize()?, pair[1].as_usize()?))
        })
        .collect()
}

fn usizes_from_json(value: &Json) -> Result<Vec<usize>, WireError> {
    value.as_arr()?.iter().map(|x| x.as_usize()).collect()
}

/// Stable string form of a [`WitnessLevel`].
pub fn level_to_str(level: WitnessLevel) -> &'static str {
    match level {
        WitnessLevel::NotAWitness => "not_a_witness",
        WitnessLevel::Factual => "factual",
        WitnessLevel::Counterfactual => "counterfactual",
        WitnessLevel::Robust => "robust",
    }
}

/// Parses the string form of a [`WitnessLevel`].
pub fn level_from_str(s: &str) -> Result<WitnessLevel, WireError> {
    match s {
        "not_a_witness" => Ok(WitnessLevel::NotAWitness),
        "factual" => Ok(WitnessLevel::Factual),
        "counterfactual" => Ok(WitnessLevel::Counterfactual),
        "robust" => Ok(WitnessLevel::Robust),
        other => Err(WireError::decode(format!(
            "unknown witness level '{other}'"
        ))),
    }
}

/// Encodes a [`Witness`]: explicit node and edge sets plus the test-node /
/// label pairing.
pub fn witness_to_json(w: &Witness) -> Json {
    Json::obj([
        ("nodes", Json::nums(w.subgraph.nodes().iter().copied())),
        ("edges", edges_to_json(w.subgraph.edges().iter())),
        ("test_nodes", Json::nums(w.test_nodes.iter().copied())),
        ("labels", Json::nums(w.labels.iter().copied())),
    ])
}

/// Decodes a [`Witness`].
pub fn witness_from_json(value: &Json) -> Result<Witness, WireError> {
    witness_from_parts(
        usizes_from_json(value.field("nodes")?)?,
        edges_from_json(value.field("edges")?)?,
        usizes_from_json(value.field("test_nodes")?)?,
        usizes_from_json(value.field("labels")?)?,
    )
}

/// Shared assembly + validation behind both witness decoders (tree and
/// direct), so they accept and reject exactly the same payloads.
fn witness_from_parts(
    nodes: Vec<usize>,
    edges: Vec<(usize, usize)>,
    test_nodes: Vec<usize>,
    labels: Vec<usize>,
) -> Result<Witness, WireError> {
    if test_nodes.len() != labels.len() {
        return Err(WireError::decode(
            "test_nodes and labels must have equal length",
        ));
    }
    if edges.iter().any(|&(u, v)| u == v) {
        return Err(WireError::decode("self-loop edge in witness"));
    }
    let subgraph = EdgeSubgraph::from_nodes_and_edges(nodes, edges);
    Ok(Witness::new(subgraph, test_nodes, labels))
}

/// Encodes a [`Disturbance`] as its flipped pairs.
pub fn disturbance_to_json(d: &Disturbance) -> Json {
    Json::obj([("flips", edges_to_json(d.pairs().iter()))])
}

/// Decodes a [`Disturbance`], rejecting self-loop flips.
pub fn disturbance_from_json(value: &Json) -> Result<Disturbance, WireError> {
    let flips = edges_from_json(value.field("flips")?)?;
    if flips.iter().any(|&(u, v)| u == v) {
        return Err(WireError::decode("self-loop flip in disturbance"));
    }
    Ok(Disturbance::from_pairs(flips))
}

/// Encodes [`EngineStats`].
pub fn engine_stats_to_json(s: &EngineStats) -> Json {
    Json::obj([
        ("queries", Json::num(s.queries as u64)),
        ("warm_hits", Json::num(s.warm_hits as u64)),
        ("sessions_run", Json::num(s.sessions_run as u64)),
        ("flips_applied", Json::num(s.flips_applied as u64)),
        ("repairs_skipped", Json::num(s.repairs_skipped as u64)),
        ("repairs_reverified", Json::num(s.repairs_reverified as u64)),
        ("repairs_searched", Json::num(s.repairs_searched as u64)),
        (
            "repairs_regenerated",
            Json::num(s.repairs_regenerated as u64),
        ),
        ("repairs_degraded", Json::num(s.repairs_degraded as u64)),
        ("degraded_serves", Json::num(s.degraded_serves as u64)),
        ("budget_aborts", Json::num(s.budget_aborts as u64)),
    ])
}

/// Decodes [`EngineStats`].
pub fn engine_stats_from_json(value: &Json) -> Result<EngineStats, WireError> {
    Ok(EngineStats {
        queries: value.field("queries")?.as_usize()?,
        warm_hits: value.field("warm_hits")?.as_usize()?,
        sessions_run: value.field("sessions_run")?.as_usize()?,
        flips_applied: value.field("flips_applied")?.as_usize()?,
        repairs_skipped: value.field("repairs_skipped")?.as_usize()?,
        repairs_reverified: value.field("repairs_reverified")?.as_usize()?,
        repairs_searched: value.field("repairs_searched")?.as_usize()?,
        repairs_regenerated: value.field("repairs_regenerated")?.as_usize()?,
        repairs_degraded: value.field("repairs_degraded")?.as_usize()?,
        degraded_serves: value.field("degraded_serves")?.as_usize()?,
        budget_aborts: value.field("budget_aborts")?.as_usize()?,
    })
}

/// Encodes an [`EngineSnapshot`].
pub fn snapshot_to_json(s: &EngineSnapshot) -> Json {
    Json::obj([
        ("stats", engine_stats_to_json(&s.stats)),
        ("stored", Json::num(s.stored as u64)),
        ("epoch", Json::num(s.epoch)),
        ("feature_epoch", Json::num(s.feature_epoch)),
        ("hood_hits", Json::num(s.hood_hits as u64)),
        ("hood_misses", Json::num(s.hood_misses as u64)),
        ("workers", Json::num(s.workers as u64)),
    ])
}

/// Decodes an [`EngineSnapshot`].
pub fn snapshot_from_json(value: &Json) -> Result<EngineSnapshot, WireError> {
    Ok(EngineSnapshot {
        stats: engine_stats_from_json(value.field("stats")?)?,
        stored: value.field("stored")?.as_usize()?,
        epoch: value.field("epoch")?.as_u64()?,
        feature_epoch: value.field("feature_epoch")?.as_u64()?,
        hood_hits: value.field("hood_hits")?.as_usize()?,
        hood_misses: value.field("hood_misses")?.as_usize()?,
        workers: value.field("workers")?.as_usize()?,
    })
}

fn generation_stats_to_json(s: &GenerationStats) -> Json {
    Json::obj([
        ("inference_calls", Json::num(s.inference_calls as u64)),
        (
            "disturbances_verified",
            Json::num(s.disturbances_verified as u64),
        ),
        ("expand_rounds", Json::num(s.expand_rounds as u64)),
        ("elapsed_us", Json::num(s.elapsed.as_micros() as u64)),
    ])
}

fn generation_stats_from_json(value: &Json) -> Result<GenerationStats, WireError> {
    Ok(GenerationStats {
        inference_calls: value.field("inference_calls")?.as_usize()?,
        disturbances_verified: value.field("disturbances_verified")?.as_usize()?,
        expand_rounds: value.field("expand_rounds")?.as_usize()?,
        elapsed: Duration::from_micros(value.field("elapsed_us")?.as_u64()?),
    })
}

/// Encodes a [`DisturbReport`].
pub fn disturb_report_to_json(r: &DisturbReport) -> Json {
    Json::obj([
        ("epoch", Json::num(r.epoch)),
        ("flips_applied", Json::num(r.flips_applied as u64)),
        ("footprint_size", Json::num(r.footprint_size as u64)),
        ("untouched", Json::num(r.untouched as u64)),
        ("reverified", Json::num(r.reverified as u64)),
        ("repaired", Json::num(r.repaired as u64)),
        ("regenerated", Json::num(r.regenerated as u64)),
        ("degraded", Json::num(r.degraded as u64)),
        ("stats", generation_stats_to_json(&r.stats)),
    ])
}

/// Decodes a [`DisturbReport`].
pub fn disturb_report_from_json(value: &Json) -> Result<DisturbReport, WireError> {
    Ok(DisturbReport {
        epoch: value.field("epoch")?.as_u64()?,
        flips_applied: value.field("flips_applied")?.as_usize()?,
        footprint_size: value.field("footprint_size")?.as_usize()?,
        untouched: value.field("untouched")?.as_usize()?,
        reverified: value.field("reverified")?.as_usize()?,
        repaired: value.field("repaired")?.as_usize()?,
        regenerated: value.field("regenerated")?.as_usize()?,
        degraded: value.field("degraded")?.as_usize()?,
        stats: generation_stats_from_json(value.field("stats")?)?,
        // Per-entry repair outcomes never cross the wire as part of the
        // report — the serving layer strips them into subscription frames.
        entries: Vec::new(),
    })
}

/// Encodes a [`GenerationResult`].
pub fn generation_to_json(r: &GenerationResult) -> Json {
    Json::obj([
        ("witness", witness_to_json(&r.witness)),
        ("level", Json::Str(level_to_str(r.level).to_string())),
        ("nontrivial", Json::Bool(r.nontrivial)),
        ("stale", Json::Bool(r.stale)),
        ("stats", generation_stats_to_json(&r.stats)),
    ])
}

/// Decodes a [`GenerationResult`].
pub fn generation_from_json(value: &Json) -> Result<GenerationResult, WireError> {
    Ok(GenerationResult {
        witness: witness_from_json(value.field("witness")?)?,
        level: level_from_str(value.field("level")?.as_str()?)?,
        nontrivial: value.field("nontrivial")?.as_bool()?,
        stale: value.field("stale")?.as_bool()?,
        stats: generation_stats_from_json(value.field("stats")?)?,
    })
}

// ---------------------------------------------------------------------------
// Structured errors
// ---------------------------------------------------------------------------

/// The uniform machine-readable error every non-2xx response carries:
/// `{"v": 1, "error": {"code": .., "detail": .., "retryable": ..}}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable class (`"bad_request"`, `"overloaded"`, ...).
    pub code: String,
    /// Human-readable description; clients match substrings, never parse.
    pub detail: String,
    /// Whether retrying the identical request may succeed.
    pub retryable: bool,
}

/// Encodes a structured error body (v1 envelope included).
pub fn error_to_body(code: &str, detail: &str, retryable: bool) -> String {
    versioned(Json::obj([(
        "error",
        Json::obj([
            ("code", Json::Str(code.to_string())),
            ("detail", Json::Str(detail.to_string())),
            ("retryable", Json::Bool(retryable)),
        ]),
    )]))
    .encode()
}

/// Decodes a structured error body. Tolerates extra top-level fields
/// (`queue_depth`, ...) but requires the envelope and all three error fields.
pub fn error_from_json(value: &Json) -> Result<ErrorBody, WireError> {
    check_version(value)?;
    let e = value.field("error")?;
    Ok(ErrorBody {
        code: e.field("code")?.as_str()?.to_string(),
        detail: e.field("detail")?.as_str()?.to_string(),
        retryable: e.field("retryable")?.as_bool()?,
    })
}

// ---------------------------------------------------------------------------
// Subscription frames
// ---------------------------------------------------------------------------

/// Decodes a [`RepairOutcome`] wire tag (inverse of [`RepairOutcome::as_str`]).
pub fn outcome_from_str(s: &str) -> Result<RepairOutcome, WireError> {
    match s {
        "reverified" => Ok(RepairOutcome::Reverified),
        "repaired" => Ok(RepairOutcome::Repaired),
        "regenerated" => Ok(RepairOutcome::Regenerated),
        "degraded" => Ok(RepairOutcome::Degraded),
        other => Err(WireError::decode(format!(
            "unknown repair outcome '{other}'"
        ))),
    }
}

/// One pushed subscription update: the repair the engine performed for a
/// subscribed entry when a disturbance's footprint touched it.
#[derive(Clone, Debug)]
pub struct WitnessUpdate {
    /// Subscription id the update belongs to (server-assigned, per-listener).
    pub subscription: u64,
    /// Disturbance sequence number that triggered the repair.
    pub disturbance: u64,
    /// How the engine resolved the entry.
    pub outcome: RepairOutcome,
    /// Graph epoch after the disturbance landed.
    pub epoch: u64,
    /// The repaired entry — bit-exact with a fresh `/generate` at `epoch`
    /// (for `degraded` outcomes: the stale-tagged result a failed heal serves).
    pub result: GenerationResult,
}

/// A decoded subscription stream frame (one NDJSON line).
#[derive(Clone, Debug)]
pub enum Frame {
    /// Acknowledgement: the subscription is registered and streaming starts.
    Subscribed {
        subscription: u64,
        epoch: u64,
        nodes: Vec<NodeId>,
        result: GenerationResult,
    },
    /// A repair landed for the subscribed entry.
    WitnessUpdate(WitnessUpdate),
}

/// Serializes the `subscribed` acknowledgement frame (no trailing newline;
/// the stream layer adds the NDJSON delimiter).
pub fn subscribed_frame_to_body(
    subscription: u64,
    epoch: u64,
    nodes: &[NodeId],
    result: &GenerationResult,
) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"v\":");
    push_u64(&mut out, WIRE_VERSION);
    out.push_str(",\"frame\":\"subscribed\",\"subscription\":");
    push_u64(&mut out, subscription);
    out.push_str(",\"epoch\":");
    push_u64(&mut out, epoch);
    out.push_str(",\"nodes\":");
    push_usize_array(&mut out, nodes.iter().copied());
    out.push_str(",\"result\":{");
    push_generation_fields(&mut out, result);
    out.push_str("}}");
    out
}

/// Serializes a `witness_update` frame (no trailing newline; the stream
/// layer adds the NDJSON delimiter). The nested result object is unversioned
/// — the envelope sits on the frame.
pub fn update_frame_to_body(u: &WitnessUpdate) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"v\":");
    push_u64(&mut out, WIRE_VERSION);
    out.push_str(",\"frame\":\"witness_update\",\"subscription\":");
    push_u64(&mut out, u.subscription);
    out.push_str(",\"disturbance\":");
    push_u64(&mut out, u.disturbance);
    out.push_str(",\"outcome\":\"");
    out.push_str(u.outcome.as_str());
    out.push_str("\",\"epoch\":");
    push_u64(&mut out, u.epoch);
    out.push_str(",\"result\":{");
    push_generation_fields(&mut out, &u.result);
    out.push_str("}}");
    out
}

/// Decodes one subscription stream frame straight from its NDJSON line,
/// bypassing the [`Json`] tree. Strict like the other direct decoders:
/// required fields per frame kind, no unknown fields, nothing trailing.
pub fn frame_from_body(text: &str) -> Result<Frame, WireError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut version = None;
    let mut kind: Option<bool> = None; // false = subscribed, true = update
    let (mut subscription, mut disturbance, mut epoch) = (None, None, None);
    let mut outcome = None;
    let mut nodes = None;
    let mut result = None;
    p.fields(|p, key| {
        match key {
            "v" => version = Some(p.version_value()?),
            "frame" => {
                kind = Some(match p.raw_str()? {
                    "subscribed" => false,
                    "witness_update" => true,
                    other => {
                        return Err(WireError::decode(format!("unknown frame kind '{other}'")))
                    }
                })
            }
            "subscription" => subscription = Some(p.usize_value()? as u64),
            "disturbance" => disturbance = Some(p.usize_value()? as u64),
            "outcome" => outcome = Some(outcome_from_str(p.raw_str()?)?),
            "epoch" => epoch = Some(p.usize_value()? as u64),
            "nodes" => nodes = Some(p.usize_array()?),
            "result" => result = Some(p.generation_value()?),
            other => return Err(WireError::decode(format!("unexpected field '{other}'"))),
        }
        Ok(())
    })?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(WireError::new(p.pos, "trailing characters after value"));
    }
    required(version, "v")?;
    match required(kind, "frame")? {
        false => Ok(Frame::Subscribed {
            subscription: required(subscription, "subscription")?,
            epoch: required(epoch, "epoch")?,
            nodes: required(nodes, "nodes")?,
            result: required(result, "result")?,
        }),
        true => Ok(Frame::WitnessUpdate(WitnessUpdate {
            subscription: required(subscription, "subscription")?,
            disturbance: required(disturbance, "disturbance")?,
            outcome: required(outcome, "outcome")?,
            epoch: required(epoch, "epoch")?,
            result: required(result, "result")?,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_value_round_trips() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hello\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x\"}}",
        ];
        for case in cases {
            let v = Json::parse(case).unwrap_or_else(|e| panic!("{case}: {e}"));
            let re = Json::parse(&v.encode()).unwrap();
            assert_eq!(v, re, "{case}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\tü 🦀".to_string());
        let enc = v.encode();
        assert_eq!(Json::parse(&enc).unwrap(), v);
        assert_eq!(
            Json::parse("\"\\u0041\\u00fc\"").unwrap(),
            Json::Str("Aü".to_string())
        );
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        let bad = [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "tru",
            "1.2.3",
            "nan",
            "01x",
            "[1]trailing",
            "\"bad \\q escape\"",
            "\"trunc \\u00",
            "1e999",
        ];
        for case in bad {
            assert!(Json::parse(case).is_err(), "should reject: {case}");
        }
        // hostile nesting is bounded, not a stack overflow
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn number_helpers_enforce_integrality() {
        assert_eq!(Json::Num(5.0).as_u64().unwrap(), 5);
        assert!(Json::Num(5.5).as_u64().is_err());
        assert!(Json::Num(-1.0).as_u64().is_err());
        assert!(Json::Str("5".into()).as_u64().is_err());
    }

    fn sample_generation() -> GenerationResult {
        let mut subgraph = EdgeSubgraph::from_edges(vec![(0, 1), (1, 2), (2, 7)]);
        subgraph.add_node(9);
        GenerationResult {
            witness: Witness::new(subgraph, vec![0, 7], vec![3, 1]),
            level: WitnessLevel::Robust,
            nontrivial: true,
            stale: false,
            stats: GenerationStats {
                inference_calls: 12,
                disturbances_verified: 4,
                expand_rounds: 2,
                elapsed: Duration::from_micros(357),
            },
        }
    }

    #[test]
    fn direct_generation_codec_matches_the_tree_codec() {
        let result = sample_generation();
        // Same bytes out: the direct body is the v1 envelope around the
        // (unversioned) tree encoding.
        let body = generation_to_body(&result);
        assert_eq!(body, versioned(generation_to_json(&result)).encode());
        // ...and both decoders accept them, agreeing with each other: the
        // direct parse re-encodes to the identical body.
        let direct = generation_from_body(&body).expect("direct parse");
        assert_eq!(generation_to_body(&direct), body);
        let tree_value = Json::parse(&body).expect("tree parse");
        check_version(&tree_value).expect("envelope");
        let tree = generation_from_json(&tree_value).expect("decode");
        assert_eq!(generation_to_body(&tree), body);
        // Field order independence (a forward-compat guarantee the tree
        // decoder already had).
        let shuffled = "{\"stale\":false,\"level\":\"robust\",\"nontrivial\":true,\
                        \"stats\":{\"elapsed_us\":357,\"expand_rounds\":2,\
                        \"disturbances_verified\":4,\"inference_calls\":12},\
                        \"witness\":{\"labels\":[3,1],\"test_nodes\":[0,7],\
                        \"edges\":[[0,1],[1,2],[2,7]],\"nodes\":[0,1,2,7,9]},\"v\":1}";
        let reordered = generation_from_body(shuffled).expect("reordered parse");
        assert_eq!(generation_to_body(&reordered), body);
    }

    #[test]
    fn version_negotiation_is_strict() {
        let body = generation_to_body(&sample_generation());
        // A future version is rejected with a typed message, both paths.
        let future = body.replacen("{\"v\":1,", "{\"v\":2,", 1);
        let err = generation_from_body(&future).expect_err("future version");
        assert!(err.to_string().contains("unsupported wire version 2"));
        let err = check_version(&Json::parse(&future).unwrap()).expect_err("tree path");
        assert!(err.to_string().contains("unsupported wire version 2"));
        // A missing version is a missing-field error, not a silent default.
        let bare = body.replacen("{\"v\":1,", "{", 1);
        let err = generation_from_body(&bare).expect_err("missing version");
        assert!(err.to_string().contains("'v'"), "{err}");
        // check_version tolerates extra fields but not absence.
        assert!(check_version(&Json::obj([("x", Json::num(3u64))])).is_err());
        assert!(check_version(&versioned(Json::obj([("x", Json::num(3u64))]))).is_ok());
    }

    #[test]
    fn error_body_round_trips() {
        let body = error_to_body("overloaded", "queue full: overloaded", true);
        let decoded = error_from_json(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(
            decoded,
            ErrorBody {
                code: "overloaded".to_string(),
                detail: "queue full: overloaded".to_string(),
                retryable: true,
            }
        );
        // Escaping survives the trip.
        let body = error_to_body("bad_request", "unexpected field '\"x\"'", false);
        let decoded = error_from_json(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(decoded.detail, "unexpected field '\"x\"'");
        // The envelope is mandatory on error bodies too.
        assert!(error_from_json(
            &Json::parse("{\"error\":{\"code\":\"x\",\"detail\":\"y\",\"retryable\":false}}")
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn subscription_frames_round_trip() {
        let result = sample_generation();
        let ack = subscribed_frame_to_body(4, 17, &[0, 7], &result);
        match frame_from_body(&ack).expect("ack decodes") {
            Frame::Subscribed {
                subscription,
                epoch,
                nodes,
                result: got,
            } => {
                assert_eq!((subscription, epoch), (4, 17));
                assert_eq!(nodes, vec![0, 7]);
                assert_eq!(generation_to_body(&got), generation_to_body(&result));
            }
            other => panic!("wrong frame: {other:?}"),
        }
        for outcome in [
            RepairOutcome::Reverified,
            RepairOutcome::Repaired,
            RepairOutcome::Regenerated,
            RepairOutcome::Degraded,
        ] {
            let update = WitnessUpdate {
                subscription: 9,
                disturbance: 3,
                outcome,
                epoch: 21,
                result: result.clone(),
            };
            let line = update_frame_to_body(&update);
            match frame_from_body(&line).expect("update decodes") {
                Frame::WitnessUpdate(got) => {
                    assert_eq!(got.subscription, 9);
                    assert_eq!(got.disturbance, 3);
                    assert_eq!(got.outcome, outcome);
                    assert_eq!(got.epoch, 21);
                    assert_eq!(generation_to_body(&got.result), generation_to_body(&result));
                }
                other => panic!("wrong frame: {other:?}"),
            }
            // Frames are versioned; the nested result object is not.
            assert!(line.starts_with("{\"v\":1,\"frame\":\"witness_update\""));
            assert!(line.contains(",\"result\":{\"witness\":"));
        }
        // Malformed frames error, never panic.
        let line = update_frame_to_body(&WitnessUpdate {
            subscription: 1,
            disturbance: 1,
            outcome: RepairOutcome::Repaired,
            epoch: 2,
            result,
        });
        for cut in 0..line.len() {
            assert!(frame_from_body(&line[..cut]).is_err(), "cut at {cut}");
        }
        assert!(frame_from_body(&line.replacen("witness_update", "mystery", 1)).is_err());
        assert!(frame_from_body(&line.replacen("\"repaired\"", "\"melted\"", 1)).is_err());
        assert!(frame_from_body(&line.replacen("{\"v\":1,", "{", 1)).is_err());
    }

    #[test]
    fn direct_generation_parser_rejects_malformed_bodies() {
        let body = generation_to_body(&sample_generation());
        // Every truncation errors instead of panicking.
        for cut in 0..body.len() {
            assert!(generation_from_body(&body[..cut]).is_err(), "cut at {cut}");
        }
        // Dropping any field is a decode error naming the field.
        for field in ["v", "witness", "level", "nontrivial", "stale", "stats"] {
            let dropped = {
                let json = Json::parse(&body).unwrap();
                let Json::Obj(fields) = json else { panic!() };
                Json::Obj(fields.into_iter().filter(|(k, _)| k != field).collect())
            };
            let err = generation_from_body(&dropped.encode()).expect_err("must reject");
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        // The shared validators still fire through the direct path.
        let self_loop = body.replace("[[0,1]", "[[1,1]");
        assert!(generation_from_body(&self_loop)
            .expect_err("self-loop")
            .to_string()
            .contains("self-loop"));
        assert!(
            generation_from_body(&body.replace("\"labels\":[3,1]", "\"labels\":[3]"))
                .expect_err("length mismatch")
                .to_string()
                .contains("equal length")
        );
        assert!(generation_from_body("").is_err());
        assert!(generation_from_body("{}").is_err());
        assert!(generation_from_body(&format!("{body} trailing")).is_err());
    }
}
