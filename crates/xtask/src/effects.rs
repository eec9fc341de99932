//! L8 `probe-effect`.
//!
//! The rule infers, via a boolean reachability fixpoint over the shared
//! [`crate::callgraph`], the set of functions that can transitively
//! reach the `WebDatabase::try_query` boundary ("probing" functions).
//! Two findings follow: a probing path anywhere in the probe-free
//! crates ([`PROBE_FREE_CRATES`]), and a function that calls
//! `try_query` directly without an `// aimq-probe: entry -- <why>`
//! annotation. Stale annotations — pointing at a function that no
//! longer probes — are errors too, so the annotated entry-point list
//! stays exact. (A probe under a lock needs no finding: an
//! `aimq_catalog::Leaf` section is a `fn` over plain data, so rustc
//! rejects one.)

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, CALLEE_BLOCKLIST};
use crate::rules::Finding;
use crate::source::ScannedFile;
use crate::structure::FileAnalysis;

/// Crates that must never reach the probing boundary: mining and
/// statistics passes assume a consistent snapshot of the source, so
/// all source I/O flows through `storage` (sampling, caching, budget
/// accounting) before they see it.
pub const PROBE_FREE_CRATES: &[&str] = &["afd", "catalog", "rock", "sim"];

/// The probing boundary callee.
const PROBE_TARGET: &str = "try_query";

const PROBE_FREE_HELP: &str =
    "mining/similarity crates must stay probe-free: route source I/O through the storage \
     boundary (sampler/cache) instead, or justify with \
     `// aimq-lint: allow(probe-effect) -- <why>` on the `fn` line";

const ENTRY_HELP: &str =
    "annotate with `// aimq-probe: entry -- <where budget/degradation accounting lives>` on \
     the `fn` line, or route the probe through an existing annotated entry point";

const STALE_HELP: &str =
    "remove the stale annotation, or re-point it at the `fn` line that calls `try_query` \
     directly";

/// One file's inputs to the workspace effects pass.
pub struct EffectsFile<'a> {
    /// Index the caller uses to map findings back to the file.
    pub idx: usize,
    /// Owning crate (directory name under `crates/`).
    pub crate_name: &'a str,
    /// Lexical scan (tokens, test regions, directives).
    pub scanned: &'a ScannedFile,
    /// Structural facts (functions and their callees).
    pub analysis: &'a FileAnalysis,
}

/// A sanctioned (or to-be-sanctioned) probing entry point: a non-test
/// function that calls `try_query` directly.
#[derive(Debug, Clone)]
pub struct ProbeEntry {
    /// File index (same space as [`EffectsFile::idx`]).
    pub idx: usize,
    /// Function name.
    pub fn_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether an `aimq-probe: entry` annotation covers it.
    pub annotated: bool,
}

/// Output of [`check_workspace`].
#[derive(Debug, Default)]
pub struct EffectsReport {
    /// Findings, tagged with the file index they occur in.
    pub findings: Vec<(usize, Finding)>,
    /// Direct probing entry points outside the probe-free crates.
    pub entries: Vec<ProbeEntry>,
    /// Probing (merged) function names per crate — empty sets for the
    /// probe-free crates is the workspace invariant.
    pub probing_by_crate: BTreeMap<String, BTreeSet<String>>,
}

/// Run L8 over the whole workspace.
pub fn check_workspace(files: &[EffectsFile]) -> EffectsReport {
    let mut report = EffectsReport::default();

    let graph = CallGraph::build(files.iter().map(|f| f.analysis));
    let targets: BTreeSet<&str> = [PROBE_TARGET].into_iter().collect();
    let probing = graph.reaches_callee(&targets);
    let chain_of = |name: &str| -> String {
        match graph.witness(name, &targets) {
            Some(chain) => format!("`{}`", chain.join("` → `")),
            None => format!("`{name}`"),
        }
    };

    for file in files {
        let probe_free = PROBE_FREE_CRATES.contains(&file.crate_name);
        let line_starts = line_offsets(&file.scanned.text);
        let mut direct_lines: BTreeSet<usize> = BTreeSet::new();
        for f in &file.analysis.functions {
            let direct = f.calls.iter().any(|c| c == PROBE_TARGET);
            if direct {
                direct_lines.insert(f.line);
            }
            // Taint is judged per *definition*, not per merged name:
            // this definition probes iff one of its own callees reaches
            // the boundary. (Judging by merged name would taint an
            // innocent `rock::answer` because `core::answer` probes.)
            let taint = f.calls.iter().find(|c| {
                !CALLEE_BLOCKLIST.contains(&c.as_str())
                    && (c.as_str() == PROBE_TARGET || probing.contains(c.as_str()))
            });
            report
                .probing_by_crate
                .entry(file.crate_name.to_string())
                .or_default()
                .extend(taint.is_some().then(|| f.name.clone()));
            if probe_free {
                if let Some(callee) = taint {
                    report.findings.push((
                        file.idx,
                        Finding {
                            rule: "probe-effect",
                            line: f.line,
                            col: 1,
                            message: format!(
                                "`{}` in probe-free crate `{}` can reach the source \
                                 boundary: `{}` → {}",
                                f.name,
                                file.crate_name,
                                f.name,
                                chain_of(callee)
                            ),
                            help: PROBE_FREE_HELP,
                        },
                    ));
                }
            }
            // Entry-point discipline: a direct boundary call must carry
            // an annotation (pointless in probe-free crates, where the
            // call itself is the error).
            if direct && !probe_free {
                let annotated = file
                    .scanned
                    .probe_directives
                    .iter()
                    .any(|d| d.target_line == f.line);
                if !annotated {
                    report.findings.push((
                        file.idx,
                        Finding {
                            rule: "probe-effect",
                            line: f.line,
                            col: 1,
                            message: format!(
                                "`{}` calls `{PROBE_TARGET}` directly but is not annotated \
                                 as a probing entry point",
                                f.name
                            ),
                            help: ENTRY_HELP,
                        },
                    ));
                }
                report.entries.push(ProbeEntry {
                    idx: file.idx,
                    fn_name: f.name.clone(),
                    line: f.line,
                    annotated,
                });
            }
        }
        report
            .probing_by_crate
            .entry(file.crate_name.to_string())
            .or_default();
        // Stale annotations: every `aimq-probe: entry` must target a
        // non-test `fn` line with a direct boundary call.
        for d in &file.scanned.probe_directives {
            let target_offset = line_starts
                .get(d.target_line.saturating_sub(1))
                .copied()
                .unwrap_or(usize::MAX);
            if file.scanned.in_test_region(target_offset) {
                continue;
            }
            if !direct_lines.contains(&d.target_line) {
                report.findings.push((
                    file.idx,
                    Finding {
                        rule: "probe-effect",
                        line: d.line,
                        col: 1,
                        message: format!(
                            "stale `aimq-probe: entry` annotation: no function on line {} \
                             calls `{PROBE_TARGET}` directly",
                            d.target_line
                        ),
                        help: STALE_HELP,
                    },
                ));
            }
        }
    }

    report
}

/// Byte offset of the start of each 1-based line.
fn line_offsets(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use crate::structure::analyze;

    fn run(srcs: &[(&str, &str)]) -> EffectsReport {
        let scanned: Vec<_> = srcs.iter().map(|(_, s)| scan(s)).collect();
        let analyses: Vec<_> = scanned.iter().map(analyze).collect();
        let files: Vec<EffectsFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, (krate, _))| EffectsFile {
                idx: i,
                crate_name: krate,
                scanned: &scanned[i],
                analysis: &analyses[i],
            })
            .collect();
        check_workspace(&files)
    }

    fn messages(report: &EffectsReport) -> Vec<&str> {
        report
            .findings
            .iter()
            .map(|(_, f)| f.message.as_str())
            .collect()
    }

    #[test]
    fn transitive_probe_in_probe_free_crate_is_flagged_with_chain() {
        let report = run(&[(
            "sim",
            "pub fn estimate(db: &D) -> f64 { refresh(db) }\n\
             fn refresh(db: &D) -> f64 { db.try_query(q); 0.0 }\n",
        )]);
        let msgs = messages(&report);
        assert!(
            msgs.iter()
                .any(|m| m.contains("`estimate` in probe-free crate `sim`")
                    && m.contains("`estimate` → `refresh` → `try_query`")),
            "{msgs:#?}"
        );
        assert!(!report.probing_by_crate["sim"].is_empty());
    }

    #[test]
    fn annotated_entry_point_is_clean_and_listed() {
        let report = run(&[(
            "storage",
            "// aimq-probe: entry -- budget accounted by the resilience report\n\
             fn probe_once(db: &D) -> Result<Page, QueryError> { db.try_query(q) }\n",
        )]);
        let probe_findings: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == "probe-effect")
            .collect();
        assert!(probe_findings.is_empty(), "{probe_findings:#?}");
        assert_eq!(report.entries.len(), 1);
        assert!(report.entries[0].annotated);
    }

    #[test]
    fn unannotated_entry_and_stale_annotation_are_flagged() {
        let report = run(&[(
            "storage",
            "fn probe_once(db: &D) -> u32 { db.try_query(q) }\n\
             // aimq-probe: entry -- stale, probes nothing\n\
             fn local(x: u64) -> u64 { x.saturating_add(1) }\n",
        )]);
        let msgs = messages(&report);
        assert!(
            msgs.iter().any(|m| m.contains("not annotated")),
            "{msgs:#?}"
        );
        assert!(msgs.iter().any(|m| m.contains("stale")), "{msgs:#?}");
    }
}
