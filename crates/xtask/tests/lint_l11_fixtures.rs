//! End-to-end runs of the wire-contract rule (L11) over
//! workspace-shaped fixture trees under `tests/fixtures/lint/`. The
//! violation fixture has two passing twins: an `_allow` tree in which
//! every finding is suppressed through the sanctioned escape hatch
//! (`aimq-wire: optional`, `aimq-lint: allow`), and a `_fixed` tree in
//! which the code is restructured so no finding exists at all.

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
        "passing twin `{name}` must be clean: {:#?}",
        report.diagnostics
    );
}

#[test]
fn l11_duplicate_conditional_stale_and_missing_pin_are_detected() {
    let report = lint("l11_drift");
    let errs = errors(&report);
    assert_eq!(errs.len(), 4, "{:#?}", report.diagnostics);
    assert!(errs.iter().all(|(rule, _)| *rule == "wire-drift"));
    assert!(errs
        .iter()
        .any(|(_, msg)| msg.contains("duplicate key `hits`") && msg.contains("`Snapshot`")));
    assert!(errs
        .iter()
        .any(|(_, msg)| msg.contains("key `detail`") && msg.contains("under a conditional")));
    assert!(errs
        .iter()
        .any(|(_, msg)| msg.contains("stale `aimq-wire: optional` annotation")));
    // The pin diagnostic lands on the artifact path itself.
    assert!(report.diagnostics.iter().any(|d| d
        .message
        .contains("results/WIRE_SCHEMA.json is missing")
        && d.path.to_string_lossy().contains("WIRE_SCHEMA")));
}

#[test]
fn l11_drift_suppressed_twin_is_clean() {
    assert_clean("l11_drift_allow");
}

#[test]
fn l11_drift_fixed_twin_is_clean() {
    assert_clean("l11_drift_fixed");
}

#[test]
fn explain_covers_the_wire_contract_rule() {
    let info = xtask::rule_info("wire-drift").expect("`--explain wire-drift` must resolve");
    assert_eq!(info.id, "wire-drift");
    assert!(!info.summary.is_empty() && !info.rationale.is_empty() && !info.remedy.is_empty());
}
