//! End-to-end runs of the lock-discipline rule (L5) over
//! workspace-shaped fixture trees under `tests/fixtures/lint/`. Each
//! violation fixture has a passing twin in which every finding is
//! suppressed with a justified `aimq-lint: allow`.

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
fn l5_cross_crate_acquisition_order_cycle_is_detected() {
    let report = lint("l5_cycle");
    let errs = errors(&report);
    // One finding per edge that closes the cycle: the inner acquisition
    // in each of the two crates.
    assert_eq!(errs.len(), 2, "{:#?}", report.diagnostics);
    assert!(errs.iter().all(|(rule, _)| *rule == "lock-discipline"));
    assert!(errs
        .iter()
        .all(|(_, msg)| msg.contains("acquisition-order cycle")));
    let paths: Vec<&Path> = report
        .diagnostics
        .iter()
        .map(|d| d.path.as_path())
        .collect();
    assert!(
        paths.iter().any(|p| p.starts_with("crates/storage"))
            && paths.iter().any(|p| p.starts_with("crates/serve")),
        "cycle must be reported in both participating crates: {paths:?}"
    );
}

#[test]
fn l5_cycle_suppressed_twin_is_clean() {
    assert_clean("l5_cycle_allow");
}

#[test]
fn l5_guard_held_across_probe_is_detected() {
    let report = lint("l5_probe");
    let errs = errors(&report);
    assert_eq!(errs.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!(errs[0].0, "lock-discipline");
    assert!(
        errs[0].1.contains("held across blocking call `try_query`"),
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn l5_probe_suppressed_twin_is_clean() {
    assert_clean("l5_probe_allow");
}

#[test]
fn json_report_round_trips_into_ci_annotations() {
    // The same path CI takes: lint --json, parse, emit ::error lines.
    let report = lint("l5_cycle");
    let encoded = report.to_json().to_string_compact();
    let doc = aimq_catalog::Json::parse(&encoded).expect("lint JSON parses back");
    let annotations = xtask::json::annotations(&doc).expect("annotations render");
    assert_eq!(
        annotations
            .lines()
            .filter(|l| l.starts_with("::error file="))
            .count(),
        2,
        "{annotations}"
    );
    assert!(
        annotations.contains("aimq::lock-discipline"),
        "{annotations}"
    );
}
