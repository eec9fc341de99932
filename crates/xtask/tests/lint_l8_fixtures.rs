//! End-to-end runs of the effect-system rule (L8 `probe-effect`) over
//! workspace-shaped fixture trees under `tests/fixtures/lint/`. Each
//! violation fixture has a passing twin in which every finding is
//! either fixed outright or suppressed with a justified
//! `aimq-lint: allow(...)`.

use std::path::{Path, PathBuf};

use xtask::{lint_root, LintReport};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    lint_root(&fixture(name)).unwrap_or_else(|e| panic!("linting fixture `{name}`: {e}"))
}

fn errors(report: &LintReport) -> Vec<(&str, &str)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule.as_str(), d.message.as_str()))
        .collect()
}

fn assert_clean(name: &str) {
    let report = lint(name);
    assert_eq!(
        report.errors(),
        0,
        "suppressed twin `{name}` must be clean: {:#?}",
        report.diagnostics
    );
}

#[test]
fn l8_transitive_probe_in_probe_free_crate_is_detected() {
    let report = lint("l8_probe_in_sim");
    let errs = errors(&report);
    assert_eq!(errs.len(), 2, "{:#?}", report.diagnostics);
    assert!(errs.iter().all(|(rule, _)| *rule == "probe-effect"));
    // The transitive case must carry the witness chain, not just a verdict.
    assert!(
        errs.iter()
            .any(|(_, msg)| msg.contains("`estimate` → `refresh` → `try_query`")),
        "{:#?}",
        report.diagnostics
    );
    assert!(errs
        .iter()
        .all(|(_, msg)| msg.contains("probe-free crate `sim`")));
}

#[test]
fn l8_probe_in_sim_suppressed_twin_is_clean() {
    assert_clean("l8_probe_in_sim_allow");
}

#[test]
fn l8_unannotated_entry_and_stale_annotation_are_detected() {
    let report = lint("l8_entry");
    let errs = errors(&report);
    assert_eq!(errs.len(), 2, "{:#?}", report.diagnostics);
    assert!(errs.iter().all(|(rule, _)| *rule == "probe-effect"));
    assert!(errs
        .iter()
        .any(|(_, msg)| msg.contains("not annotated as a probing entry point")));
    assert!(errs
        .iter()
        .any(|(_, msg)| msg.contains("stale `aimq-probe: entry` annotation")));
}

#[test]
fn l8_entry_annotated_twin_is_clean() {
    assert_clean("l8_entry_allow");
}

#[test]
fn explain_covers_the_probe_effect_rule() {
    let info = xtask::rule_info("probe-effect").expect("`--explain probe-effect` must resolve");
    assert_eq!(info.id, "probe-effect");
    assert!(!info.summary.is_empty() && !info.rationale.is_empty() && !info.remedy.is_empty());
    assert!(
        xtask::rule_info("counter-arith").is_none(),
        "counter arithmetic is clippy's `arithmetic_side_effects` now"
    );
}
