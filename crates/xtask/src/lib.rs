//! `cargo xtask` — repo-specific static analysis for the AIMQ
//! workspace.
//!
//! The headline command, `cargo xtask lint`, enforces the invariants
//! that neither rustc, clippy, Cargo nor the type system can check (see
//! DESIGN.md, "Static analysis & invariants", for the full rule →
//! mechanism table). The toolchain carries the rest: panic-freedom
//! (`clippy::unwrap_used` and friends), hash containers and wall-clock
//! reads (`clippy.toml` `disallowed-types` / `disallowed-methods`), the
//! crate DAG (Cargo plus the `tests/crate_dag.rs` manifest test), fault
//! discipline (`#[must_use]` on the fault enums plus the
//! `let_underscore_*`, `unused_result_ok` and wildcard-match lints),
//! atomics (the raw types are banned outside three audited modules;
//! `aimq_catalog::Counter` and `Flag` fix the orderings), lock
//! discipline (raw `Mutex`/`RwLock` are banned; an `aimq_catalog::Leaf`
//! section is a `fn` pointer over `Plain` data, so it cannot probe,
//! block or nest), counter arithmetic
//! (`clippy::arithmetic_side_effects`, denied at the roots of the six
//! crates that meter, budget, serve or parse outside input), and the
//! HTTP error surface (the `ErrorCode` enum in `crates/http`, checked
//! against DESIGN.md by a unit test). Probe-freedom is Cargo's: the
//! mining crates (`afd`, `sim`, `rock`) and the generators (`data`)
//! depend on `aimq-catalog` and `aimq-relation` only, never on
//! `aimq-storage`, which defines `WebDatabase`, so no path from them to
//! a probe compiles (`tests/crate_dag.rs` pins those manifest rows).
//!
//! Two token-level rules stay here because clippy's versions would
//! loosen them:
//!
//! - **`indexing`**: direct `expr[...]` indexing in the library crates
//!   needs a justified allow. clippy's `indexing_slicing` does not flag
//!   `Index` on `BTreeMap` or `VecDeque`.
//! - **L2 float-ordering safety**: similarity/importance scores are
//!   compared with `f64::total_cmp`/`OrderedScore`, never the
//!   NaN-unsafe `partial_cmp`. A clippy `disallowed-methods` ban on
//!   `PartialOrd::partial_cmp` would also fire inside every
//!   `#[derive(PartialOrd)]`.
//!
//! The JSON wire contract is pinned outside xtask, by rendering it:
//! `tests/wire_golden.rs` runs every `to_json()` on fixed samples and
//! compares the bytes with `results/WIRE_GOLDEN.txt`.
//!
//! Diagnostics are rustc-style with file:line:col spans; per-line
//! suppressions use `// aimq-lint: allow(<rule>) -- <justification>`
//! and the justification is mandatory. `--json` emits the same
//! findings machine-readably through `aimq_catalog::Json` (see the
//! `json` module), and `--explain <rule>` prints the registry entry.
//! The pass is a hand-rolled lexical scan (`source` module) because
//! the offline build environment cannot fetch `syn`.
#![allow(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants,
    reason = "the wildcard lints guard matches over the fault enums, which xtask cannot see"
)]

pub mod json;
pub mod rules;
pub mod source;

pub use rules::{rule_info, Finding, RuleInfo, KNOWN_RULES, RULES};

use std::path::{Path, PathBuf};

use aimq_catalog::Json;

/// Library crates under the `indexing` and float-ordering rules:
/// exactly the crates whose root denies clippy's panic lints
/// (`tests/lint_fixtures.rs` checks the match). `http` joined with the
/// network front door: a malformed request or a dying socket must
/// become a typed 400/transport error, never a panic in a connection
/// thread.
pub const PANIC_CRATES: &[&str] = &[
    "catalog", "relation", "storage", "afd", "sim", "rock", "core", "serve", "http",
];

/// A rendered-ready diagnostic bound to a file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (one of [`RULES`]).
    pub rule: String,
    /// Path relative to the lint root.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description of the violation.
    pub message: String,
    /// The offending source line, for the span rendering.
    pub snippet: String,
    /// Remedy note (empty when not applicable).
    pub help: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All diagnostics, in file-then-line order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of diagnostics; every finding is an error.
    pub fn errors(&self) -> usize {
        self.diagnostics.len()
    }

    /// The report as the `--json` document: `{"errors": N,
    /// "findings": [{rule, file, line, col, message, help}]}`.
    pub fn to_json(&self) -> Json {
        let findings = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("rule", Json::Str(d.rule.clone())),
                    ("file", Json::Str(d.path.display().to_string())),
                    ("line", Json::Num(d.line as f64)),
                    ("col", Json::Num(d.col as f64)),
                    ("message", Json::Str(d.message.clone())),
                    ("help", Json::Str(d.help.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("errors", Json::Num(self.errors() as f64)),
            ("findings", Json::Arr(findings)),
        ])
    }
}

/// Lint a workspace-shaped tree rooted at `root`: every `.rs` file
/// under `crates/<name>/src/` for each name in [`PANIC_CRATES`], in
/// (path, line, col) order.
pub fn lint_root(root: &Path) -> std::io::Result<LintReport> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} is not a directory", crates_dir.display()),
        ));
    }
    let mut report = LintReport::default();
    for name in PANIC_CRATES {
        let src_dir = crates_dir.join(name).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        for file in files {
            let text = std::fs::read_to_string(&file)?;
            lint_file(&text, file.strip_prefix(root).unwrap_or(&file), &mut report);
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one library-crate file's text, appending to `report`:
/// directive hygiene and the token-level rules (`indexing`,
/// float-ordering).
pub fn lint_file(text: &str, rel_path: &Path, report: &mut LintReport) {
    let scanned = source::scan(text);
    let lines: Vec<String> = text.lines().map(|l| l.trim_end().to_string()).collect();
    let snippet = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .cloned()
            .unwrap_or_default()
    };

    // Malformed suppressions are themselves errors: an allow without a
    // justification is indistinguishable from a shrug.
    for (line, msg) in &scanned.bad_directives {
        report.diagnostics.push(Diagnostic {
            rule: "lint-allow".to_string(),
            path: rel_path.to_path_buf(),
            line: *line,
            col: 1,
            message: msg.clone(),
            snippet: snippet(*line),
            help: String::new(),
        });
    }
    // So are directives naming rules that do not exist: they silently
    // suppress nothing and rot.
    for allow in &scanned.allows {
        for rule in &allow.rules {
            if !KNOWN_RULES.contains(&rule.as_str()) {
                report.diagnostics.push(Diagnostic {
                    rule: "lint-allow".to_string(),
                    path: rel_path.to_path_buf(),
                    line: allow.line,
                    col: 1,
                    message: format!(
                        "unknown rule `{rule}` in allow directive (known: {})",
                        KNOWN_RULES.join(", ")
                    ),
                    snippet: snippet(allow.line),
                    help: String::new(),
                });
            }
        }
    }

    for finding in rules::check(&scanned) {
        if scanned.is_allowed(finding.rule, finding.line) {
            continue;
        }
        report.diagnostics.push(Diagnostic {
            rule: finding.rule.to_string(),
            path: rel_path.to_path_buf(),
            line: finding.line,
            col: finding.col,
            message: finding.message,
            snippet: snippet(finding.line),
            help: finding.help.to_string(),
        });
    }
}

/// Render one diagnostic rustc-style.
pub fn render(diag: &Diagnostic) -> String {
    let gutter = diag.line.to_string();
    let pad = " ".repeat(gutter.len());
    let caret_pad = " ".repeat(diag.col.saturating_sub(1));
    let mut out = format!(
        "error[aimq::{rule}]: {message}\n  --> {path}:{line}:{col}\n{pad} |\n{gutter} | \
         {snippet}\n{pad} | {caret_pad}^\n",
        rule = diag.rule,
        message = diag.message,
        path = diag.path.display(),
        line = diag.line,
        col = diag.col,
        snippet = diag.snippet,
    );
    if !diag.help.is_empty() {
        out.push_str(&format!("{pad} = help: {}\n", diag.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_file_reports_and_suppresses() {
        let src = "\
fn risky(xs: &[f64]) -> f64 {
    let v = xs[0];
    v
}
fn excused(xs: &[f64]) -> f64 {
    // aimq-lint: allow(indexing) -- the caller guarantees non-empty input
    xs[0]
}
";
        let mut report = LintReport::default();
        lint_file(src, Path::new("crates/afd/src/x.rs"), &mut report);
        assert_eq!(report.errors(), 1, "{:#?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 2);
    }

    #[test]
    fn a_root_without_crates_is_an_error() {
        let missing = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-tree");
        assert!(lint_root(&missing).is_err());
    }

    #[test]
    fn render_is_rustc_shaped() {
        let diag = Diagnostic {
            rule: "indexing".into(),
            path: PathBuf::from("crates/afd/src/x.rs"),
            line: 2,
            col: 15,
            message: "direct indexing can panic on out-of-range input".into(),
            snippet: "    let v = xs[0];".into(),
            help: "prefer `.get()`".into(),
        };
        let text = render(&diag);
        assert!(text.contains("error[aimq::indexing]"));
        assert!(text.contains("--> crates/afd/src/x.rs:2:15"));
        assert!(text.contains("= help:"));
    }
}
