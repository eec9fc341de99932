//! The AIMQ lint rules, matched over a [`ScannedFile`].
//!
//! | id | scope | what it catches |
//! |---|---|---|
//! | `indexing` | nine library crates | direct `expr[...]` indexing/slicing |
//! | `float-ordering` | nine library crates | `.partial_cmp(` calls on scores |
//! | `lint-allow` | everywhere linted | malformed, unjustified, or unknown-rule suppression directives |
//!
//! Every finding is an error. Panic-freedom, hash containers, the wall
//! clock, the crate DAG, probe-freedom, fault discipline, atomics, lock
//! discipline, counter arithmetic and the HTTP error surface are not
//! here: rustc, clippy, Cargo and the type system enforce them. Nor is
//! the JSON wire contract, which `tests/wire_golden.rs` pins by
//! rendering every `to_json()` (see DESIGN.md, "Static analysis &
//! invariants").

use crate::source::ScannedFile;

/// One finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier as used in `aimq-lint: allow(...)`.
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
    /// Suggested remedy, rendered as a `help:` note.
    pub help: &'static str,
}

/// Keywords that can legitimately precede `[` without it being an
/// indexing expression (slice patterns, `for x in [..]`, etc.).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "match", "if", "while", "return", "mut", "ref", "move", "else", "static", "const",
    "as", "dyn", "impl", "where", "for", "loop", "break", "use", "pub", "fn", "enum", "struct",
    "type", "trait", "unsafe", "extern", "box", "await", "yield",
];

/// Run the token-level rules (`float-ordering`, `indexing`) over
/// `file`, skipping test regions. Suppression is applied by the caller;
/// malformed directives surface as `lint-allow` errors from
/// [`crate::lint_file`].
pub fn check(file: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.tokens;
    for k in 0..toks.len() {
        if file.in_test_region(toks[k].offset) {
            continue;
        }
        let t = &toks[k];
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(k + 1);

        // `.partial_cmp(` — NaN-unsafe comparison on similarity /
        // importance scores.
        if t.text == "partial_cmp"
            && prev.is_some_and(|p| p.text == ".")
            && next.is_some_and(|n| n.text == "(")
        {
            findings.push(Finding {
                rule: "float-ordering",
                line: t.line,
                col: t.col,
                message: "`.partial_cmp()` on scores is NaN-unsafe and breaks total ranking"
                    .to_string(),
                help: "use `f64::total_cmp`, `aimq_catalog::OrderedScore`, or justify with \
                       `// aimq-lint: allow(float-ordering) -- <why NaN cannot occur>`",
            });
        }
        // Direct indexing `expr[...]`. A lifetime ident
        // before the bracket (`&'a [u8]`) is a slice type, not an
        // indexing expression.
        if t.text == "["
            && prev.is_some_and(|p| {
                (p.is_ident && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                    || p.text == ")"
                    || p.text == "]"
            })
            && !(prev.is_some_and(|p| p.is_ident)
                && k.checked_sub(2).is_some_and(|p2| toks[p2].text == "'"))
        {
            findings.push(Finding {
                rule: "indexing",
                line: t.line,
                col: t.col,
                message: "direct indexing can panic on out-of-range input".to_string(),
                help: "prefer `.get()`/`.get_mut()` with error propagation where the index \
                       is not invariant-backed",
            });
        }
    }
    findings
}

/// Every rule id accepted inside `aimq-lint: allow(...)`.
pub const KNOWN_RULES: &[&str] = &["indexing", "float-ordering"];

/// One registry entry backing `cargo xtask lint --explain <rule>` and
/// the doc-drift self-test over the module-doc table above.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id as it appears in findings and `allow(...)` lists.
    pub id: &'static str,
    /// One-line description (what it catches).
    pub summary: &'static str,
    /// Why the rule exists in this workspace.
    pub rationale: &'static str,
    /// How to fix or justify a finding.
    pub remedy: &'static str,
}

/// The full rule registry: every id that can appear in a diagnostic,
/// including the `lint-allow` meta-rule for malformed suppressions.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "indexing",
        summary: "direct `expr[...]` indexing or slicing",
        rationale: "out-of-range indexing panics; most AIMQ hot paths index by invariant \
                    (attribute counts fixed at catalog build), so each surviving site records \
                    that invariant. clippy's `indexing_slicing` cannot replace this rule: it \
                    does not flag `Index` on `BTreeMap` or `VecDeque`.",
        remedy: "prefer `.get()`/`.get_mut()` with error propagation where the index is not \
                 invariant-backed; justify the rest with \
                 `// aimq-lint: allow(indexing) -- <the invariant>`.",
    },
    RuleInfo {
        id: "float-ordering",
        summary: "`.partial_cmp(` on similarity/importance scores",
        rationale: "NaN makes `partial_cmp` return None, and `unwrap_or(Equal)` silently \
                    reshuffles rankings — the paper's whole output is a ranked list, so \
                    ordering must be total. clippy's `disallowed-methods` cannot replace this \
                    rule: a ban on `PartialOrd::partial_cmp` also fires inside every \
                    `#[derive(PartialOrd)]`.",
        remedy: "use `f64::total_cmp` or `aimq_catalog::OrderedScore`; justify exceptions \
                 with `// aimq-lint: allow(float-ordering) -- <why NaN cannot occur>`.",
    },
    RuleInfo {
        id: "lint-allow",
        summary: "malformed, unjustified, or unknown-rule suppression directives",
        rationale: "an allow without a justification is indistinguishable from a shrug, and \
                    an allow naming a rule that does not exist suppresses nothing while \
                    looking load-bearing.",
        remedy: "write `// aimq-lint: allow(<known-rule>) -- <justification>` with a \
                 non-empty justification after the `--`.",
    },
];

/// Look up a rule by id (for `--explain`).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        check(&scan(src)).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn partial_cmp_call_is_flagged_but_definition_is_not() {
        assert_eq!(
            rules_hit("fn f() { a.partial_cmp(&b); }"),
            vec!["float-ordering"]
        );
        assert!(rules_hit("fn partial_cmp(a: f64) {}").is_empty());
    }

    #[test]
    fn indexing_is_flagged() {
        assert_eq!(rules_hit("fn f() { let y = xs[0]; }"), vec!["indexing"]);
        assert_eq!(rules_hit("fn f() { let y = g()[1..]; }"), vec!["indexing"]);
    }

    #[test]
    fn slice_patterns_and_array_types_are_not_indexing() {
        assert!(rules_hit("fn f(xs: [f64; 3]) { let [a, b, c] = xs; }").is_empty());
        assert!(rules_hit("fn f() { for x in [1, 2] {} }").is_empty());
        assert!(rules_hit("fn f() { let v = vec![1, 2]; }").is_empty());
        // Slice types behind a lifetime are types, not indexing.
        assert!(rules_hit("fn f<'a>(buf: &'a [u8]) -> &'a [u8] { buf }").is_empty());
    }

    #[test]
    fn registry_covers_known_rules_and_doc_table() {
        // Every suppressible rule has a registry entry, and the
        // registry's extra ids are exactly the non-suppressible
        // meta-rules.
        for id in KNOWN_RULES {
            assert!(
                rule_info(id).is_some(),
                "KNOWN_RULES id `{id}` not in RULES"
            );
        }
        let extra: Vec<&str> = RULES
            .iter()
            .map(|r| r.id)
            .filter(|id| !KNOWN_RULES.contains(id))
            .collect();
        assert_eq!(extra, vec!["lint-allow"], "unexpected registry-only rules");
        // Doc-drift guard: the module-doc table lists every registered
        // rule id as a `| `id` |` row.
        let doc = include_str!("rules.rs");
        for rule in RULES {
            let row = format!("//! | `{}` |", rule.id);
            assert!(
                doc.contains(&row),
                "rules.rs module-doc table is missing a row for `{}`",
                rule.id
            );
        }
    }

    #[test]
    fn test_module_code_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { xs[0]; }\n}";
        assert!(rules_hit(src).is_empty());
    }
}
