//! A tiny, deterministic JSON layer shared by the wire protocol and the
//! evaluation harness.
//!
//! The vendored `serde` is a no-op stub (see `vendor/README.md`), so the
//! derives scattered over the model types carry no behaviour; every byte
//! that leaves the system goes through this module instead. Two
//! properties matter more than generality:
//!
//! * **Determinism** — objects are ordered vectors of pairs, never hash
//!   maps, and numbers render through one canonical path (integers when
//!   exactly representable, shortest-roundtrip decimal otherwise), so
//!   the same value always serializes to the same bytes. The HTTP
//!   byte-identity tests pin this.
//! * **Panic-freedom** — the parser is fed by untrusted sockets; it
//!   rejects malformed input with positioned [`JsonError`]s, never by
//!   panicking, and caps recursion depth against stack exhaustion.

use std::fmt;

/// Maximum nesting depth the parser accepts before rejecting the
/// document; deep enough for any AIMQ payload, shallow enough that a
/// hostile `[[[[…` body cannot exhaust the stack.
const MAX_DEPTH: usize = 64;

/// A parsed or constructed JSON value.
///
/// Objects preserve insertion order (`Vec` of pairs, not a map): the
/// serialization of a value is a pure function of how it was built,
/// which is what makes HTTP responses byte-for-byte reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from owned pairs; a thin readability helper for
    /// the `to_json()` implementations layered above this crate.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object (first match wins); `None` for
    /// non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace) into a fresh string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Parses a complete JSON document; trailing non-whitespace input
    /// is an error, as is anything malformed or nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Renders `n` through the canonical number path: `null` when
/// non-finite, an integer literal when exactly representable as one
/// (|n| < 2^53 and no fractional part), otherwise Rust's
/// shortest-roundtrip `Display` for `f64`.
fn write_num(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write to String is infallible"
        )]
        let _ = write!(out, "{}", n as i64);
    } else {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write to String is infallible"
        )]
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "fmt::Write to String is infallible"
                )]
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            self.pos = self.pos.saturating_add(1);
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos = self.pos.saturating_add(1);
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", expected as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        let end = self.pos.saturating_add(kw.len());
        if self.bytes.get(self.pos..end) == Some(kw.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos = self.pos.saturating_add(1);
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth.saturating_add(1))?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos = self.pos.saturating_add(1),
                Some(b']') => {
                    self.pos = self.pos.saturating_add(1);
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos = self.pos.saturating_add(1);
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth.saturating_add(1))?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos = self.pos.saturating_add(1),
                Some(b'}') => {
                    self.pos = self.pos.saturating_add(1);
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote,
            // backslash, or control character.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos = self.pos.saturating_add(1);
            }
            if let Some(run) = self.bytes.get(start..self.pos) {
                // The input came from a `&str`, and the run breaks only
                // at ASCII bytes, so it stays valid UTF-8.
                out.push_str(std::str::from_utf8(run).map_err(|_| self.err("invalid UTF-8"))?);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos = self.pos.saturating_add(1);
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos = self.pos.saturating_add(1);
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos = self.pos.saturating_add(1);
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // Leading surrogate: require a `\uXXXX` trailing pair.
                    self.eat(b'\\')
                        .and_then(|()| self.eat(b'u'))
                        .map_err(|_| self.err("unpaired surrogate"))?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    surrogate_pair(hi, lo)
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos.saturating_add(4);
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos = self.pos.saturating_add(1);
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos = self.pos.saturating_add(1);
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos = self.pos.saturating_add(1);
            let frac_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos = self.pos.saturating_add(1);
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos = self.pos.saturating_add(1);
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos = self.pos.saturating_add(1);
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos = self.pos.saturating_add(1);
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

/// The code point a UTF-16 surrogate pair encodes.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "the caller range-checks hi to 0xD800..0xDC00 and lo to 0xDC00..0xE000, \
              so no step wraps and the result is at most 0x10FFFF"
)]
fn surrogate_pair(hi: u32, lo: u32) -> u32 {
    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in ["null", "true", "false", "0", "-7", "3.25", "\"hi\""] {
            let v = Json::parse(doc).unwrap();
            assert_eq!(v.to_string_compact(), doc);
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(10.0).to_string_compact(), "10");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let v = Json::obj(vec![
            ("zeta", Json::Num(1.0)),
            ("alpha", Json::Bool(true)),
            ("mid", Json::Str("x".into())),
        ]);
        assert_eq!(
            v.to_string_compact(),
            r#"{"zeta":1,"alpha":true,"mid":"x"}"#
        );
    }

    #[test]
    fn nested_structures_round_trip_bytes() {
        let doc = r#"{"query":{"Model":"Camry","Price":10000},"k":10,"flags":[true,null]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string_compact(), doc);
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(10));
        assert_eq!(
            v.get("query")
                .and_then(|q| q.get("Model"))
                .and_then(Json::as_str),
            Some("Camry")
        );
    }

    #[test]
    fn string_escapes_both_ways() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        let s = Json::Str("tab\there\u{1}".into()).to_string_compact();
        assert_eq!(s, "\"tab\\there\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("tab\there\u{1}"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for doc in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "01x",
            "\"",
            "1.2.3",
            "[1 2]",
            "{\"a\":1,}",
            "truefalse",
        ] {
            assert!(Json::parse(doc).is_err(), "accepted {doc:?}");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting() {
        let deep: String = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok: String = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(Json::parse("{} {}").is_err());
        assert!(Json::parse("  {\"a\":1}  ").is_ok());
    }
}
