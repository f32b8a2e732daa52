//! A dependency-free JSON value, pretty writer, and recursive-descent
//! parser.
//!
//! The workspace is hermetically offline — no serde — yet run reports must
//! leave the process in a machine-readable form for CI artifacts and the
//! `stats diff` tool. This module implements the small JSON subset those
//! consumers need: objects preserve insertion order (stable report
//! schemas diff cleanly under `git diff`), numbers are `f64` (every
//! counter we emit is far below 2^53), and strings support the standard
//! escapes including `\uXXXX` surrogate pairs. A document encoded once
//! can be written into others as text ([`Json::write_spliced`]), with
//! the same bytes its tree would give there.
//!
//! The parser reads bytes from outside the process (wire frames, store
//! files), so its recursion is bounded: a document nested deeper than
//! [`MAX_DEPTH`] is a [`JsonError`], never a stack overflow.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// The deepest documents the workspace writes are an `omega-serve` batch
/// response (8 levels: envelope, batch payload, `results`, one result,
/// then a run report's `engine.per_core[i]`) and a store entry wrapping a
/// telemetry-carrying run report (7 levels: entry, payload, `telemetry`,
/// `windows`, one window, its `delta`, one component). The bound is four
/// times the deeper of the two, and still keeps the parser's recursion to
/// a few KiB of stack on any thread.
pub const MAX_DEPTH: usize = 32;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder starting empty.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds/overwrites `key` on an object (panics on non-objects — a
    /// builder misuse, not a data error).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
        self
    }

    /// Removes `key` from an object and returns its value; `None` if it
    /// is absent or this is not an object.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let Json::Obj(entries) = self else {
            return None;
        };
        let i = entries.iter().position(|(k, _)| k == key)?;
        Some(entries.remove(i).1)
    }

    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an integer counter, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline —
    /// the format every report artifact uses.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out.push('\n');
        out
    }

    /// Appends the document to `out` as [`Json::dump`] writes it, without
    /// the trailing newline: its encoded text.
    pub fn write_to(&self, out: &mut String) {
        self.write_spliced(out, |_| None);
    }

    /// [`Json::write_to`], except that each value for which `splice`
    /// returns text is written as that text instead. The text is a
    /// document as [`Json::write_to`] encoded it, and it is re-indented
    /// for the depth where it lands, so the output is byte-identical to
    /// writing that document's tree there. This is how a payload encoded
    /// once goes into many documents without being rebuilt as a tree.
    pub fn write_spliced<'t>(
        &self,
        out: &mut String,
        mut splice: impl FnMut(&Json) -> Option<&'t str>,
    ) {
        self.write(out, 0, &mut splice);
    }

    fn write<'t, F: FnMut(&Json) -> Option<&'t str>>(
        &self,
        out: &mut String,
        indent: usize,
        splice: &mut F,
    ) {
        if let Some(text) = splice(self) {
            // Strings escape their newlines, so every newline in the text
            // starts a line that sits `indent` levels deeper here.
            let mut lines = text.split('\n');
            out.push_str(lines.next().unwrap_or_default());
            for line in lines {
                out.push('\n');
                push_indent(out, indent);
                out.push_str(line);
            }
            return;
        }
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1, splice);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1, splice);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        // Exact in an i64, and written as `{n:.0}` writes it without the
        // float formatter: every counter of a report takes this branch.
        if n == 0.0 && n.is_sign_negative() {
            out.push_str("-0");
        } else {
            let _ = write!(out, "{}", n as i64);
        }
    } else {
        // Rust's f64 Display is shortest-round-trip.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
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

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("truncated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 code point (the input is &str,
                    // so boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Collects every numeric leaf of `v` reachable through objects as
/// `(dotted.path, value)` pairs, in document order. Arrays are skipped on
/// purpose: histogram buckets and time-series windows would flood a diff
/// with per-run noise, while the scalar summary metrics are what two runs
/// are compared on.
pub fn flatten_numbers(v: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    fn walk(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
        match v {
            Json::Num(n) => out.push((prefix.to_string(), *n)),
            Json::Obj(entries) => {
                for (k, child) in entries {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&path, child, out);
                }
            }
            _ => {}
        }
    }
    walk("", v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_stable_pretty_output() {
        let mut o = Json::obj();
        o.set("name", Json::Str("pagerank".into()));
        o.set("cycles", Json::Num(123456.0));
        o.set("ratio", Json::Num(0.5));
        o.set("flags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let text = o.dump();
        assert_eq!(
            text,
            "{\n  \"name\": \"pagerank\",\n  \"cycles\": 123456,\n  \"ratio\": 0.5,\n  \"flags\": [\n    true,\n    null\n  ]\n}\n"
        );
    }

    #[test]
    fn round_trips_through_parse() {
        let mut o = Json::obj();
        o.set("text", Json::Str("line\n\"quoted\"\ttab \\ slash".into()));
        o.set("neg", Json::Num(-17.25));
        o.set("big", Json::Num(9007199254740991.0)); // 2^53 - 1
        o.set("empty_obj", Json::obj());
        o.set("empty_arr", Json::Arr(vec![]));
        o.set(
            "nested",
            Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]),
        );
        let parsed = Json::parse(&o.dump()).unwrap();
        assert_eq!(parsed, o);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        let v = Json::parse(r#""Aé 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé 😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"abc", "{1:2}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Far past the bound: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&nested(100_000)).is_err());
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        let mut o = Json::obj();
        o.set("nan", Json::Num(f64::NAN));
        assert!(o.dump().contains("\"nan\": null"));
    }

    fn written(n: f64) -> String {
        let mut out = String::new();
        write_number(&mut out, n);
        out
    }

    /// Integral values write exactly the bytes `{n:.0}` writes, on the
    /// edges of the integer branch and on a seeded sweep of integers of
    /// every magnitude below it.
    #[test]
    fn integers_write_the_bytes_of_the_float_formatter() {
        let edge = 1e15 - 1.0;
        let two53 = 9007199254740992.0;
        for n in [0.0, -0.0, 1.0, -1.0, edge, -edge, two53, two53 + 2.0] {
            assert_eq!(written(n), format!("{n:.0}"), "{n:?}");
        }
        let mut rng = omega_graph::rng::SmallRng::seed_from_u64(0x1D1_6175);
        for _ in 0..200_000 {
            let digits = rng.gen_range(1u32..16);
            let magnitude = rng.next_u64() % 10u64.pow(digits);
            let n = if rng.gen_bool() {
                -(magnitude as f64)
            } else {
                magnitude as f64
            };
            assert_eq!(written(n), format!("{n:.0}"), "{n:?}");
        }
    }

    /// A document's encoded text spliced at any depth writes the same
    /// bytes as the document itself.
    #[test]
    fn spliced_text_writes_the_bytes_of_its_tree_at_every_depth() {
        let mut doc = Json::obj();
        doc.set("text", Json::Str("two\nlines".into()));
        doc.set("n", Json::Num(-0.0));
        doc.set(
            "rows",
            Json::Arr(vec![Json::obj(), Json::Arr(vec![Json::Num(1.5)])]),
        );
        let mut text = String::new();
        doc.write_to(&mut text);
        assert_eq!(format!("{text}\n"), doc.dump());
        // `null` marks the slot the text goes into.
        let (mut tree, mut slotted) = (doc, Json::Null);
        for depth in 0..4 {
            let mut spliced = String::new();
            slotted.write_spliced(&mut spliced, |v| (*v == Json::Null).then_some(&*text));
            let mut want = String::new();
            tree.write_to(&mut want);
            assert_eq!(spliced, want, "depth {depth}");
            let wrap = |inner: Json| {
                let mut o = Json::obj();
                o.set("id", Json::Num(7.0));
                o.set("items", Json::Arr(vec![Json::Bool(true), inner]));
                o
            };
            tree = wrap(tree);
            slotted = wrap(slotted);
        }
    }

    #[test]
    fn numbers_preserve_integer_counters() {
        let v = Json::parse("1234567890123").unwrap();
        assert_eq!(v.as_u64(), Some(1234567890123));
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn flatten_skips_arrays_and_dots_paths() {
        let text = r#"{"a": 1, "b": {"c": 2, "d": [3, 4]}, "e": "x"}"#;
        let flat = flatten_numbers(&Json::parse(text).unwrap());
        assert_eq!(flat, vec![("a".to_string(), 1.0), ("b.c".to_string(), 2.0)]);
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut o = Json::obj();
        o.set("k", Json::Num(1.0));
        o.set("k", Json::Num(2.0));
        assert_eq!(o.as_object().unwrap().len(), 1);
        assert_eq!(o.get("k").and_then(Json::as_f64), Some(2.0));
    }
}
