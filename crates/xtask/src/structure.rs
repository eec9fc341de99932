//! Function structure over the flat token stream: the call-graph input
//! of L8.
//!
//! L8 needs to know which functions exist and what each one calls.
//! This module recovers just that from the [`ScannedFile`] token
//! stream — brace-matched function bodies and the call sites inside
//! them — without a real parser (the offline container cannot fetch
//! `syn`). A **call** is an identifier followed by `(` that is not a
//! keyword, a `fn` definition or an uppercase (tuple-struct or variant)
//! constructor. Nested items are attributed to the enclosing function.

use crate::source::{ScannedFile, Token};

/// Keywords that precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "fn", "move", "in", "as", "else",
    "break", "continue", "unsafe", "ref", "mut", "use", "pub", "impl", "where", "dyn",
];

/// Everything the walk learned about one function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Every callee identifier (deduplicated) — call-graph input.
    pub calls: Vec<String>,
}

/// Per-file structural facts consumed by the effect checker.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Non-test functions, in source order.
    pub functions: Vec<FnFacts>,
}

/// Analyze one scanned file.
pub fn analyze(file: &ScannedFile) -> FileAnalysis {
    let toks = &file.tokens;
    let functions = find_functions(toks)
        .into_iter()
        .filter(|f| !file.in_test_region(toks[f.body_start].offset))
        .map(|f| FnFacts {
            calls: calls_in(toks.get(f.body_start..f.body_end).unwrap_or_default()),
            name: f.name,
            line: f.line,
        })
        .collect();
    FileAnalysis { functions }
}

/// A function's name plus the token span of its brace-matched body.
struct FnSpan {
    name: String,
    line: usize,
    /// Token index of the body `{`.
    body_start: usize,
    /// Token index one past the matching `}`.
    body_end: usize,
}

fn find_functions(toks: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        if toks[k].text != "fn" || !toks.get(k + 1).is_some_and(|n| n.is_ident) {
            k += 1;
            continue;
        }
        let name = toks[k + 1].text.clone();
        let line = toks[k].line;
        // Scan to the body `{` at paren depth 0; a `;` first means a
        // trait method declaration without a body.
        let mut j = k + 2;
        let mut paren = 0usize;
        let mut body_start = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "{" if paren == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(start) = body_start else {
            k = j + 1;
            continue;
        };
        let mut depth = 0usize;
        let mut end = toks.len();
        for (m, tok) in toks.iter().enumerate().skip(start) {
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = m + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(FnSpan {
            name,
            line,
            body_start: start,
            body_end: end,
        });
        // Resume past the body: nested items are analyzed in the
        // context of the enclosing function, not re-walked.
        k = end;
    }
    out
}

/// The deduplicated callee identifiers of one function body.
fn calls_in(body: &[Token]) -> Vec<String> {
    let mut calls: Vec<String> = Vec::new();
    for (i, t) in body.iter().enumerate() {
        let is_call = t.is_ident
            && body.get(i + 1).is_some_and(|n| n.text == "(")
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !t.text.starts_with(char::is_uppercase)
            && !(i > 0 && body[i - 1].text == "fn");
        if is_call && !calls.contains(&t.text) {
            calls.push(t.text.clone());
        }
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    #[test]
    fn calls_are_collected_per_function_outside_tests() {
        let src = "\
fn outer(db: &D) -> u32 {\n\
    let v = helper(db);\n\
    fn nested() { deep(); }\n\
    if check(v) { Some(v).map(|x| x.wrap()); }\n\
    db.try_query(q)\n\
}\n\
trait T { fn declared(&self); }\n\
#[cfg(test)]\n\
mod tests { fn t() { hidden(); } }\n";
        let a = analyze(&scan(src));
        assert_eq!(a.functions.len(), 1, "{:#?}", a.functions);
        let f = &a.functions[0];
        assert_eq!((f.name.as_str(), f.line), ("outer", 1));
        assert_eq!(
            f.calls,
            vec!["helper", "deep", "check", "map", "wrap", "try_query"]
        );
    }
}
