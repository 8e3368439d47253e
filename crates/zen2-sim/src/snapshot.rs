//! Exact JSON snapshots of streaming state: the durable half of
//! checkpoint/resume.
//!
//! A paper-scale sweep reduces to a handful of on-line accumulators
//! (see [`stats`](crate::stats)); persisting those accumulators at a
//! shard boundary is enough to resume the sweep later — *if* the
//! round-trip is exact. This module provides that round-trip:
//!
//! * [`Json`] — a small JSON document tree with a hand-rolled renderer
//!   and parser (the vendored serde shim has no serializer; the
//!   experiments crate's `--json` tables render through it too). Numbers
//!   are kept as their literal text, so a `u64` or an `f64` written by
//!   the renderer parses back to the identical bits.
//! * [`Snapshot`] — the trait every accumulator implements: dump the
//!   exact state as a [`Json`] tree, rebuild the identical state from
//!   one. "Identical" is literal: feeding a restored accumulator the
//!   remaining observations must produce bit-for-bit the same summary
//!   as an uninterrupted run.
//!
//! Floating-point values are rendered with Rust's shortest-round-trip
//! formatting (guaranteed to parse back to the same bits); the
//! non-finite values JSON cannot express are encoded as the strings
//! `"NaN"`, `"inf"` and `"-inf"`.
//!
//! ```
//! use zen2_sim::{Json, OnlineStats, Snapshot};
//!
//! let mut stats = OnlineStats::new();
//! for i in 0..100 {
//!     stats.push(i as f64 * 0.1);
//! }
//! // Snapshot → JSON text → parse → restore is exact…
//! let restored = OnlineStats::restore(&Json::parse(&stats.snapshot().render()).unwrap()).unwrap();
//! assert_eq!(restored, stats);
//! // …so continuing the stream gives bit-identical results.
//! let (mut a, mut b) = (stats, restored);
//! a.push(123.456);
//! b.push(123.456);
//! assert_eq!(a.mean().to_bits(), b.mean().to_bits());
//! ```

use std::fmt;

/// A restore failure: the JSON was malformed, or well-formed but not a
/// valid snapshot of the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(String);

impl SnapshotError {
    /// Builds an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self(reason.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// A JSON document tree.
///
/// Numbers are stored as their literal text ([`Json::Num`] holds the
/// token, not a parsed value), so integers above 2⁵³ and every `f64`
/// bit pattern survive a render→parse round-trip unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An `f64` as a JSON value: shortest-round-trip decimal for finite
    /// values, the strings `"NaN"` / `"inf"` / `"-inf"` otherwise.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            // Rust's float Debug prints the shortest decimal that
            // parses back to the identical bits.
            Json::Num(format!("{v:?}"))
        } else if v.is_nan() {
            Json::Str("NaN".into())
        } else if v > 0.0 {
            Json::Str("inf".into())
        } else {
            Json::Str("-inf".into())
        }
    }

    /// A `u64` as a JSON number.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A `usize` as a JSON number.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An object from `(key, value)` pairs, preserving their order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of `f64`s (each encoded as [`Json::f64`]).
    pub fn f64s(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::f64).collect())
    }

    /// An array of `usize`s.
    pub fn usizes(values: impl IntoIterator<Item = usize>) -> Json {
        Json::Arr(values.into_iter().map(Json::usize).collect())
    }

    /// The value under `key`.
    ///
    /// # Errors
    /// Errors when `self` is not an object or the key is absent.
    pub fn get(&self, key: &str) -> Result<&Json, SnapshotError> {
        let Json::Obj(fields) = self else {
            return Err(SnapshotError::new(format!("expected an object with key {key:?}")));
        };
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| SnapshotError::new(format!("missing key {key:?}")))
    }

    /// The array elements.
    ///
    /// # Errors
    /// Errors when `self` is not an array.
    pub fn items(&self) -> Result<&[Json], SnapshotError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(SnapshotError::new(format!("expected an array, found {other:?}"))),
        }
    }

    /// The value as an `f64`, accepting the non-finite encodings of
    /// [`Json::f64`].
    ///
    /// # Errors
    /// Errors when `self` is neither a number nor a non-finite marker.
    pub fn as_f64(&self) -> Result<f64, SnapshotError> {
        match self {
            Json::Num(text) => text
                .parse()
                .map_err(|_| SnapshotError::new(format!("invalid f64 literal {text:?}"))),
            Json::Str(s) if s == "NaN" => Ok(f64::NAN),
            Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
            Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(SnapshotError::new(format!("expected a number, found {other:?}"))),
        }
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    /// Errors when `self` is not a non-negative integer number.
    pub fn as_u64(&self) -> Result<u64, SnapshotError> {
        match self {
            Json::Num(text) => text
                .parse()
                .map_err(|_| SnapshotError::new(format!("invalid u64 literal {text:?}"))),
            other => Err(SnapshotError::new(format!("expected an integer, found {other:?}"))),
        }
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    /// Errors when `self` is not an integer number.
    pub fn as_i64(&self) -> Result<i64, SnapshotError> {
        match self {
            Json::Num(text) => text
                .parse()
                .map_err(|_| SnapshotError::new(format!("invalid i64 literal {text:?}"))),
            other => Err(SnapshotError::new(format!("expected an integer, found {other:?}"))),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    /// Errors when `self` is not a non-negative integer number.
    pub fn as_usize(&self) -> Result<usize, SnapshotError> {
        match self {
            Json::Num(text) => text
                .parse()
                .map_err(|_| SnapshotError::new(format!("invalid usize literal {text:?}"))),
            other => Err(SnapshotError::new(format!("expected an integer, found {other:?}"))),
        }
    }

    /// The value as a `bool`.
    ///
    /// # Errors
    /// Errors when `self` is not a boolean.
    pub fn as_bool(&self) -> Result<bool, SnapshotError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(SnapshotError::new(format!("expected a boolean, found {other:?}"))),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    /// Errors when `self` is not a string.
    pub fn as_str(&self) -> Result<&str, SnapshotError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(SnapshotError::new(format!("expected a string, found {other:?}"))),
        }
    }

    /// The value as a `Vec<f64>` (an array of [`Json::f64`] encodings).
    ///
    /// # Errors
    /// Errors when `self` is not an array of numbers.
    pub fn as_f64s(&self) -> Result<Vec<f64>, SnapshotError> {
        self.items()?.iter().map(Json::as_f64).collect()
    }

    /// The value as a `Vec<usize>`.
    ///
    /// # Errors
    /// Errors when `self` is not an array of non-negative integers.
    pub fn as_usizes(&self) -> Result<Vec<usize>, SnapshotError> {
        self.items()?.iter().map(Json::as_usize).collect()
    }

    /// Renders the tree as compact JSON text (one line, no spaces).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, anything
    /// else after the document is an error).
    ///
    /// # Errors
    /// Errors on malformed JSON, with a byte offset in the message, and
    /// on arrays/objects nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, SnapshotError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Renders `s` as a JSON string literal (quotes included) into `out`.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// parser recurses once per level, so unbounded input could overflow
/// the stack; the deepest snapshot this crate writes nests 6 levels.
const MAX_JSON_DEPTH: usize = 128;

/// A recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> SnapshotError {
        SnapshotError::new(format!("{reason} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), SnapshotError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, SnapshotError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, SnapshotError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token");
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else { return Err(self.err("unterminated string")) };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Snapshots never emit surrogate pairs (the
                            // renderer only \u-escapes control bytes),
                            // so a lone surrogate is simply an error.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at c.
                    let start = self.pos - 1;
                    let len = utf8_len(c).ok_or_else(|| self.err("invalid UTF-8"))?;
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, SnapshotError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, SnapshotError> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// The byte length of the UTF-8 sequence starting with `first`, or
/// `None` for a continuation/invalid lead byte.
fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

/// An exact, durable dump/rebuild round-trip for streaming state.
///
/// Implementations must be *exact*: `restore(&snapshot())` rebuilds a
/// value that is indistinguishable from the original — same comparison
/// result, same future behavior bit for bit. That is what makes a
/// resumed sweep byte-identical to an uninterrupted one (see
/// [`checkpoint`](crate::checkpoint)).
///
/// Implementing the trait for an experiment-specific accumulator is a
/// handful of lines with the [`Json`] helpers:
///
/// ```
/// use zen2_sim::{Json, Snapshot, SnapshotError, Welford};
///
/// /// Two power readings folded per case.
/// #[derive(Default, PartialEq, Debug)]
/// struct AcAndRapl {
///     ac: Welford,
///     rapl: Welford,
/// }
///
/// impl Snapshot for AcAndRapl {
///     fn snapshot(&self) -> Json {
///         Json::obj([("ac", self.ac.snapshot()), ("rapl", self.rapl.snapshot())])
///     }
///     fn restore(json: &Json) -> Result<Self, SnapshotError> {
///         Ok(Self {
///             ac: Welford::restore(json.get("ac")?)?,
///             rapl: Welford::restore(json.get("rapl")?)?,
///         })
///     }
/// }
///
/// let mut acc = AcAndRapl::default();
/// acc.ac.push(99.1);
/// acc.rapl.push(84.0);
/// let round_tripped = AcAndRapl::from_json_text(&acc.to_json_text()).unwrap();
/// assert_eq!(round_tripped, acc);
/// ```
pub trait Snapshot: Sized {
    /// The exact current state as a JSON tree.
    fn snapshot(&self) -> Json;

    /// Rebuilds the exact state a [`snapshot`](Self::snapshot) captured.
    ///
    /// # Errors
    /// Errors when `json` is not a snapshot of this type.
    fn restore(json: &Json) -> Result<Self, SnapshotError>;

    /// [`snapshot`](Self::snapshot) rendered as compact JSON text.
    fn to_json_text(&self) -> String {
        self.snapshot().render()
    }

    /// Parses and [`restore`](Self::restore)s in one step.
    ///
    /// # Errors
    /// Errors on malformed JSON or a snapshot of the wrong type.
    fn from_json_text(text: &str) -> Result<Self, SnapshotError> {
        Self::restore(&Json::parse(text)?)
    }
}

/// `Option<S>` snapshots as `null` or the inner snapshot — the shape
/// [`GroupedStats`](crate::stats::GroupedStats) accumulators that hold
/// one reduced result per cell use.
impl<S: Snapshot> Snapshot for Option<S> {
    fn snapshot(&self) -> Json {
        match self {
            None => Json::Null,
            Some(inner) => inner.snapshot(),
        }
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        match json {
            Json::Null => Ok(None),
            other => Ok(Some(S::restore(other)?)),
        }
    }
}

impl Snapshot for f64 {
    fn snapshot(&self) -> Json {
        Json::f64(*self)
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        json.as_f64()
    }
}

impl Snapshot for u64 {
    fn snapshot(&self) -> Json {
        Json::u64(*self)
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        json.as_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_every_value_kind() {
        let doc = Json::obj([
            ("null", Json::Null),
            ("flag", Json::Bool(true)),
            ("int", Json::u64(u64::MAX)),
            ("float", Json::f64(0.1)),
            ("text", Json::str("a \"quoted\"\nline\t\u{1}")),
            ("arr", Json::Arr(vec![Json::Bool(false), Json::Null])),
            ("nested", Json::obj([("k", Json::usize(7))])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_round_trips_above_2_to_the_53() {
        let v = (1u64 << 53) + 1;
        let json = Json::parse(&Json::u64(v).render()).unwrap();
        assert_eq!(json.as_u64().unwrap(), v);
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [
            0.1,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN_POSITIVE / 2.0, // subnormal
            99.1,
        ] {
            let json = Json::parse(&Json::f64(v).render()).unwrap();
            assert_eq!(json.as_f64().unwrap().to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn non_finite_floats_use_string_markers() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let json = Json::parse(&Json::f64(v).render()).unwrap();
            let back = json.as_f64().unwrap();
            if v.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.to_bits(), v.to_bits());
            }
        }
        assert_eq!(Json::f64(f64::INFINITY).render(), "\"inf\"");
    }

    #[test]
    fn parser_reports_malformed_documents() {
        for text in ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "1 2"] {
            assert!(Json::parse(text).is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn parser_bounds_nesting_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128 levels"), "{err}");
        let objects = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&objects).unwrap_err().to_string().contains("nesting deeper"));
        // The bound itself still parses, one level more does not.
        let at_bound = format!("{}{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        let past = format!("[{at_bound}]");
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn parser_accepts_standard_escapes_and_unicode() {
        let json = Json::parse("\"a\\u0041\\n\\t\\\\ μ\"").unwrap();
        assert_eq!(json.as_str().unwrap(), "aA\n\t\\ μ");
    }

    #[test]
    fn accessors_name_their_failures() {
        let obj = Json::obj([("a", Json::Null)]);
        assert!(obj.get("b").unwrap_err().to_string().contains("missing key \"b\""));
        assert!(Json::Null.get("a").is_err());
        assert!(Json::Null.as_f64().is_err());
        assert!(Json::Str("x".into()).as_u64().is_err());
        assert!(Json::Null.items().is_err());
    }

    #[test]
    fn option_snapshot_is_null_or_inner() {
        let none: Option<f64> = None;
        assert_eq!(none.snapshot(), Json::Null);
        let some = Some(1.5f64);
        assert_eq!(Option::<f64>::restore(&some.snapshot()).unwrap(), some);
        assert_eq!(Option::<f64>::restore(&Json::Null).unwrap(), None);
    }

    #[test]
    fn negative_zero_survives() {
        let json = Json::parse(&Json::f64(-0.0).render()).unwrap();
        assert_eq!(json.as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
    }
}
