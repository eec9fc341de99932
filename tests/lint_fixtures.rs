//! Drives `cargo xtask lint` (via the `xtask` library) against the
//! fixture trees under `tests/fixtures/lint/`. Each seeded tree plants
//! exactly one kind of violation; the clean tree must pass outright.
//!
//! The fixtures are workspace-shaped (`<root>/crates/<name>/src/*.rs`)
//! so `lint_root` applies the same crate-scoped rule selection it uses
//! on the real repo: `catalog` and `afd` get the indexing and
//! float-ordering rules.

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

#[test]
fn probe_free_crates_have_empty_probing_sets() {
    // The L8 fixpoint is the proof: `afd`, `sim`, `rock` and `catalog`
    // are pure in-memory layers, and no function in them may reach
    // `WebDatabase::try_query` — not even transitively through storage
    // helpers. An empty set here is a workspace invariant, not luck.
    let summary =
        xtask::probe_summary(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("scan workspace");
    for crate_name in ["afd", "catalog", "rock", "sim"] {
        let probing = summary
            .probing_by_crate
            .get(crate_name)
            .map(|fns| fns.iter().cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        assert!(
            probing.is_empty(),
            "crate `{crate_name}` must stay probe-free, but these functions \
             can reach `try_query`: {probing:?}"
        );
    }
}

#[test]
fn checked_in_probe_entrypoint_list_is_current() {
    // `results/PROBE_ENTRYPOINTS.txt` is the reviewed probing surface;
    // a new probe path must show up in the diff of that file, never
    // slide in silently. Regenerate with `cargo xtask probes --write`.
    let summary =
        xtask::probe_summary(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("scan workspace");
    let rendered: String = summary
        .entries
        .iter()
        .map(|e| format!("{} {}\n", e.path.display(), e.fn_name))
        .collect();
    let checked_in = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results/PROBE_ENTRYPOINTS.txt"),
    )
    .expect("results/PROBE_ENTRYPOINTS.txt exists");
    assert_eq!(
        checked_in, rendered,
        "probing surface drifted; regenerate with `cargo xtask probes --write` \
         and review the diff"
    );
}
