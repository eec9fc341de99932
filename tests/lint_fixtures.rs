//! Drives `cargo xtask lint` (via the `xtask` library) against the
//! fixture trees under `tests/fixtures/lint/`. Each seeded tree plants
//! exactly one kind of violation; the clean tree must pass outright.
//!
//! The fixtures are workspace-shaped (`<root>/crates/<name>/src/*.rs`)
//! so `lint_root` applies the same crate-scoped rule selection it uses
//! on the real repo: `catalog` and `afd` get the indexing and
//! float-ordering rules.

use std::path::{Path, PathBuf};

use xtask::{lint_root, LintReport, PANIC_CRATES};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    lint_root(&fixture(name)).unwrap_or_else(|e| panic!("linting fixture `{name}`: {e}"))
}

fn rules_of(report: &LintReport) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.rule.as_str()).collect()
}

#[test]
fn clean_fixture_passes() {
    let report = lint("clean");
    assert_eq!(
        report.errors(),
        0,
        "clean tree must produce no errors: {:#?}",
        report.diagnostics
    );
}

#[test]
fn float_ordering_fixture_fails_with_float_rule() {
    let report = lint("float_ordering");
    assert_eq!(
        rules_of(&report),
        vec!["float-ordering"],
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn bad_allow_fixture_rejects_malformed_directives() {
    let report = lint("bad_allow");
    let errors = rules_of(&report);
    // One unjustified allow + one unknown-rule allow, and since neither
    // directive is well-formed-and-matching, both index sites still fire.
    assert_eq!(
        errors.iter().filter(|r| **r == "lint-allow").count(),
        2,
        "{:#?}",
        report.diagnostics
    );
    assert_eq!(
        errors.iter().filter(|r| **r == "indexing").count(),
        2,
        "malformed allows must not suppress the violation they sit on: {:#?}",
        report.diagnostics
    );
    let messages: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("justification")),
        "{messages:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("unknown rule `indexng`")),
        "{messages:#?}"
    );
}

#[test]
fn real_workspace_is_lint_clean() {
    // The repo itself must satisfy its own invariants with zero
    // unsuppressed findings: every `indexing` site in the library
    // crates carries a justified allow.
    let report = lint_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("lint workspace");
    assert!(
        report.diagnostics.is_empty(),
        "workspace lint findings: {:#?}",
        report.diagnostics
    );
}

/// Does `lib_rs` deny `clippy::unwrap_used` in a crate-level
/// `#![deny(...)]` attribute? (A mention in a doc comment does not
/// count.)
fn denies_unwrap_used(lib_rs: &str) -> bool {
    lib_rs.split("#![deny(").skip(1).any(|attr| {
        attr.split(")]")
            .next()
            .is_some_and(|lints| lints.split(',').any(|l| l.trim() == "clippy::unwrap_used"))
    })
}

#[test]
fn panic_crates_are_the_crates_that_deny_unwrap_used() {
    // The `indexing` and float-ordering rules cover exactly the library
    // crates that promise panic-freedom at their root, so a new library
    // crate cannot fall out of the lint's scope unnoticed.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut denying: Vec<String> = std::fs::read_dir(&crates)
        .expect("read crates/")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|dir| {
            std::fs::read_to_string(dir.join("src/lib.rs"))
                .is_ok_and(|text| denies_unwrap_used(&text))
        })
        .map(|dir| {
            dir.file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    denying.sort();
    let mut listed: Vec<String> = PANIC_CRATES.iter().map(|c| c.to_string()).collect();
    listed.sort();
    assert_eq!(
        listed, denying,
        "xtask::PANIC_CRATES must list exactly the crates whose lib.rs denies clippy::unwrap_used"
    );
    assert!(!denies_unwrap_used(
        "//! (`clippy::unwrap_used` and friends)"
    ));
}
