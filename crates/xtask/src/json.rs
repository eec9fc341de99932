//! Machine-readable lint output: JSON emission for `--json`, a minimal
//! JSON reader for the `annotate` subcommand, and GitHub Actions
//! workflow-command generation (`::error file=…`) so findings render
//! inline on pull requests.
//!
//! Both directions are hand-rolled: the offline build environment has
//! no serde, and the schema is a single flat array of findings.

use crate::LintReport;

/// Serialize a report as JSON: `{"errors": N,
/// "findings": [{rule, file, line, col, message, help}]}`.
pub fn to_json(report: &LintReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"errors\":{},\"findings\":[", report.errors()));
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\
             \"message\":{},\"help\":{}}}",
            quote(&d.rule),
            quote(&d.path.display().to_string()),
            d.line,
            d.col,
            quote(&d.message),
            quote(&d.help),
        ));
    }
    out.push_str("]}");
    out
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (just enough for the lint schema).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// null
    Null,
    /// true / false
    Bool(bool),
    /// Numbers (lint output only uses unsigned integers).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Value>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload, if this is a number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as usize),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = bytes.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("truncated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Re-sync to char boundaries for multibyte UTF-8.
                let mut len = 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                    len += 1;
                }
                let start = *pos - len;
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?,
                );
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => return Err(format!("expected `,` or `]`, got {other:?} at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // {
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}"));
        }
        *pos += 1;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => return Err(format!("expected `,` or `}}`, got {other:?} at byte {pos}")),
        }
    }
}

/// Escape a workflow-command *value* (the message after `::…::`).
fn esc_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escape a workflow-command *property* (file=, title=).
fn esc_prop(s: &str) -> String {
    esc_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// Render parsed `--json` output as GitHub Actions annotations, one
/// `::error` workflow command per finding.
pub fn annotations(doc: &Value) -> Result<String, String> {
    let findings = doc
        .get("findings")
        .and_then(|v| match v {
            Value::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
        .ok_or("lint JSON has no `findings` array")?;
    let mut out = String::new();
    for f in findings {
        let field = |k: &str| {
            f.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("finding missing string field `{k}`"))
        };
        let num = |k: &str| {
            f.get(k)
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("finding missing numeric field `{k}`"))
        };
        out.push_str(&format!(
            "::error file={},line={},col={},title=aimq::{}::{}\n",
            esc_prop(field("file")?),
            num("line")?,
            num("col")?,
            esc_prop(field("rule")?),
            esc_data(field("message")?),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diagnostic;
    use std::path::PathBuf;

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "lock-discipline".into(),
                    path: PathBuf::from("crates/serve/src/queue.rs"),
                    line: 40,
                    col: 12,
                    message: "guard held across `recv`, \"quoted\"".into(),
                    snippet: "    let s = lock(&self.state);".into(),
                    help: "drop the guard first".into(),
                },
                Diagnostic {
                    rule: "indexing".into(),
                    path: PathBuf::from("crates/core/src/engine.rs"),
                    line: 7,
                    col: 3,
                    message: "direct indexing".into(),
                    snippet: String::new(),
                    help: String::new(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let report = sample_report();
        let doc = parse(&to_json(&report)).expect("parse own output");
        assert_eq!(doc.get("errors").and_then(Value::as_usize), Some(2));
        let Some(Value::Arr(findings)) = doc.get("findings") else {
            panic!("findings array missing: {doc:?}");
        };
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("rule").and_then(Value::as_str),
            Some("lock-discipline")
        );
        assert_eq!(
            findings[0].get("message").and_then(Value::as_str),
            Some("guard held across `recv`, \"quoted\"")
        );
        assert_eq!(findings[1].get("line").and_then(Value::as_usize), Some(7));
    }

    #[test]
    fn annotations_escape_workflow_metacharacters() {
        let report = sample_report();
        let doc = parse(&to_json(&report)).expect("parse");
        let ann = annotations(&doc).expect("annotate");
        let lines: Vec<&str> = ann.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("::error file=crates/serve/src/queue.rs,line=40,col=12,"),
            "{ann}"
        );
        assert!(
            lines[1].starts_with("::error file=crates/core/src/engine.rs,"),
            "{ann}"
        );
        // Message text rides after the `::` separator unescaped except
        // for %, CR, LF.
        assert!(lines[0].contains("guard held across `recv`"), "{ann}");
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_escapes() {
        assert!(parse("{} extra").is_err());
        assert!(parse("\"\\q\"").is_err());
        assert!(parse("[1, 2").is_err());
        assert_eq!(
            parse("[1, \"two\", {\"k\": null}]").unwrap(),
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Str("two".into()),
                Value::Obj(vec![("k".into(), Value::Null)]),
            ])
        );
    }
}
