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
//! (`clippy::arithmetic_side_effects`, denied at the roots of the five
//! crates that meter, budget, serve or parse outside input), and the
//! HTTP error surface (the `ErrorCode` enum in `crates/http`, checked
//! against DESIGN.md by a unit test).
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
//! One more needs whole-program, annotation-driven reasoning:
//!
//! - **L8 probe-effect** (the `effects` module, over the `callgraph`
//!   fixpoint and the per-function calls from `structure`): every
//!   function that can transitively reach `WebDatabase::try_query` is
//!   inferred; probing paths are banned in the probe-free crates
//!   (`afd`, `sim`, `rock`, `catalog`), and direct boundary callers
//!   must be annotated `// aimq-probe: entry -- <why>` (stale
//!   annotations are errors).
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

pub mod callgraph;
pub mod effects;
pub mod json;
pub mod rules;
pub mod source;
pub mod structure;

pub use rules::{rule_info, Finding, RuleInfo, KNOWN_RULES, RULES};

use std::path::{Path, PathBuf};

use aimq_catalog::Json;

/// Library crates under the `indexing` and float-ordering rules (each also denies clippy's panic lints at its root). `http`
/// joined with the network front door: a malformed request or a dying
/// socket must become a typed 400/transport error, never a panic in a
/// connection thread.
pub const PANIC_CRATES: &[&str] = &[
    "catalog", "storage", "afd", "sim", "rock", "core", "serve", "http",
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

/// Lint a workspace-shaped tree rooted at `root`.
///
/// Pass 1 walks every `.rs` file under `crates/<name>/src/` (except
/// `xtask` itself, whose docs quote directive syntax verbatim), runs
/// the per-file rules on the [`PANIC_CRATES`], and retains the
/// structural facts. Pass 2 runs the workspace-wide effect check over
/// those facts, with its findings filtered through each file's own
/// suppressions.
pub fn lint_root(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let entries = scan_workspace(root)?;

    for entry in &entries {
        if PANIC_CRATES.contains(&entry.crate_name.as_str()) {
            lint_scanned(&entry.scanned, &entry.lines, &entry.rel, &mut report);
        }
    }

    // Pass 2: the effect-system rule (L8 probe-effect over the call
    // graph) over every crate — bins and eval included, which the
    // per-file rules skip.
    let late = effects::check_workspace(&effects_files(&entries)).findings;

    for (idx, finding) in late {
        let entry = &entries[idx];
        if entry.scanned.is_allowed(finding.rule, finding.line) {
            continue;
        }
        report.diagnostics.push(Diagnostic {
            rule: finding.rule.to_string(),
            path: entry.rel.clone(),
            line: finding.line,
            col: finding.col,
            message: finding.message,
            snippet: entry
                .lines
                .get(finding.line.saturating_sub(1))
                .cloned()
                .unwrap_or_default(),
            help: finding.help.to_string(),
        });
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(report)
}

/// One scanned workspace file retained for the cross-file passes.
struct Entry {
    rel: PathBuf,
    crate_name: String,
    scanned: source::ScannedFile,
    analysis: structure::FileAnalysis,
    lines: Vec<String>,
}

/// Scan every `.rs` file under `crates/<name>/src/` (except `xtask`
/// itself, whose docs quote directive syntax verbatim) into retained
/// lexical + structural facts, in (crate, path) order.
fn scan_workspace(root: &Path) -> std::io::Result<Vec<Entry>> {
    let crates_dir = root.join("crates");
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    names.retain(|n| n != "xtask");

    let mut entries: Vec<Entry> = Vec::new();
    for name in &names {
        let src_dir = crates_dir.join(name).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let scanned = source::scan(&text);
            let analysis = structure::analyze(&scanned);
            let lines: Vec<String> = text.lines().map(|l| l.trim_end().to_string()).collect();
            entries.push(Entry {
                rel,
                crate_name: name.clone(),
                scanned,
                analysis,
                lines,
            });
        }
    }
    Ok(entries)
}

/// One sanctioned probing entry point, for `cargo xtask probes` and
/// the checked-in `results/PROBE_ENTRYPOINTS.txt` audit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProbeEntryPoint {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Function name.
    pub fn_name: String,
}

/// Workspace probe-effect summary: the direct `try_query` callers and
/// the per-crate probing sets the L8 fixpoint inferred.
#[derive(Debug, Default)]
pub struct ProbeSummary {
    /// Direct boundary callers outside the probe-free crates, sorted.
    pub entries: Vec<ProbeEntryPoint>,
    /// Probing (merged) function names per crate. The probe-free
    /// crates (`afd`, `sim`, `rock`, `catalog`) must map to empty sets.
    pub probing_by_crate: std::collections::BTreeMap<String, std::collections::BTreeSet<String>>,
}

/// The effect pass's view of every scanned file.
fn effects_files(entries: &[Entry]) -> Vec<effects::EffectsFile<'_>> {
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| effects::EffectsFile {
            idx: i,
            crate_name: e.crate_name.as_str(),
            scanned: &e.scanned,
            analysis: &e.analysis,
        })
        .collect()
}

/// Compute the L8 probe-effect summary for the workspace at `root`.
pub fn probe_summary(root: &Path) -> std::io::Result<ProbeSummary> {
    let entries = scan_workspace(root)?;
    let report = effects::check_workspace(&effects_files(&entries));
    let mut out = ProbeSummary {
        probing_by_crate: report.probing_by_crate,
        ..ProbeSummary::default()
    };
    for entry in report.entries {
        out.entries.push(ProbeEntryPoint {
            path: entries[entry.idx].rel.clone(),
            fn_name: entry.fn_name,
        });
    }
    out.entries.sort();
    out.entries.dedup();
    Ok(out)
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

/// Lint one library-crate file's text with the per-file rules,
/// appending to `report` (tests, single-file use).
pub fn lint_file(text: &str, rel_path: &Path, report: &mut LintReport) {
    let scanned = source::scan(text);
    let lines: Vec<String> = text.lines().map(|l| l.trim_end().to_string()).collect();
    lint_scanned(&scanned, &lines, rel_path, report);
}

/// Per-file pass over pre-scanned facts: directive hygiene and the
/// token-level rules (`indexing`, float-ordering).
fn lint_scanned(
    scanned: &source::ScannedFile,
    lines: &[String],
    rel_path: &Path,
    report: &mut LintReport,
) {
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

    for finding in rules::check(scanned) {
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
