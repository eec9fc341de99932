//! The workspace crate DAG, checked over `crates/*/Cargo.toml`.
//!
//! Cargo already rejects a `use` of a crate the manifest never declared,
//! so layering reduces to one property of the manifests: every aimq
//! crate named under `[dependencies]` sits strictly below the declaring
//! crate. Dev-dependencies are exempt (test harnesses may reach across
//! the DAG).

use std::path::Path;

/// Each crate directory and the crate directories it may depend on:
/// catalog → relation → {storage, afd → sim → rock} → core → serve →
/// {http, cli, eval}, with `data` a leaf over catalog/relation.
/// `storage` defines the `WebDatabase` source boundary; the offline side
/// never reaches it (see `probe_free_crates_cannot_reach_the_source`).
const LAYERS: &[(&str, &[&str])] = &[
    ("catalog", &[]),
    ("relation", &["catalog"]),
    ("storage", &["catalog", "relation"]),
    ("data", &["catalog", "relation"]),
    ("afd", &["catalog", "relation"]),
    ("sim", &["catalog", "relation", "afd"]),
    ("rock", &["catalog", "relation", "afd", "sim"]),
    (
        "core",
        &["catalog", "relation", "storage", "afd", "sim", "rock"],
    ),
    (
        "serve",
        &[
            "catalog", "relation", "storage", "afd", "sim", "rock", "core",
        ],
    ),
    (
        "http",
        &[
            "catalog", "relation", "storage", "afd", "sim", "rock", "core", "serve",
        ],
    ),
    (
        "eval",
        &[
            "catalog", "relation", "storage", "data", "afd", "sim", "rock", "core", "serve",
        ],
    ),
    (
        "cli",
        &[
            "catalog", "relation", "storage", "data", "afd", "sim", "rock", "core", "serve",
            "http", "eval",
        ],
    ),
];

/// The library crates, in `LAYERS` order: each crate root denies the
/// panic-freedom lints (`indexing_slicing` among them) and the
/// `clippy.toml` type and method bans.
const LIBRARY: &[&str] = &[
    "catalog", "relation", "storage", "afd", "sim", "rock", "core", "serve", "http",
];

/// The crates that learn from a probed sample or generate data offline.
/// None may depend, even transitively, on `storage`, the crate that
/// defines the source boundary `WebDatabase::try_query`.
const PROBE_FREE: &[&str] = &["catalog", "relation", "afd", "sim", "rock", "data"];

/// Crate directory of an aimq package: `aimq` lives in `core`, every
/// other `aimq-<dir>` in `<dir>`. `None` for non-aimq packages.
fn crate_dir(package: &str) -> Option<&str> {
    if package == "aimq" {
        Some("core")
    } else {
        package.strip_prefix("aimq-")
    }
}

/// The aimq crate directories a manifest's `[dependencies]` table names,
/// in either the `aimq-x = ...` or the dotted `aimq-x.workspace = true`
/// form.
fn dependencies(manifest: &str) -> Vec<&str> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        if let Some(dir) = crate_dir(key).filter(|_| in_deps) {
            out.push(dir);
        }
    }
    out
}

/// The `LAYERS` row of crate `dir`.
fn allowed(dir: &str) -> &'static [&'static str] {
    LAYERS
        .iter()
        .find(|(name, _)| *name == dir)
        .map(|(_, allowed)| *allowed)
        .unwrap_or_else(|| panic!("crate `{dir}` has no row in LAYERS; place it in the DAG"))
}

/// Dependencies of crate `dir` that the DAG does not allow below it.
fn upward_edges<'a>(dir: &str, deps: &[&'a str]) -> Vec<&'a str> {
    let allowed = allowed(dir);
    deps.iter()
        .copied()
        .filter(|dep| !allowed.contains(dep))
        .collect()
}

/// Every crate `dir` may reach through `LAYERS` edges, itself excluded.
fn reachable(dir: &str) -> Vec<&'static str> {
    let mut seen: Vec<&'static str> = Vec::new();
    let mut stack: Vec<&'static str> = allowed(dir).to_vec();
    while let Some(next) = stack.pop() {
        if !seen.contains(&next) {
            seen.push(next);
            stack.extend_from_slice(allowed(next));
        }
    }
    seen
}

#[test]
fn manifests_follow_the_crate_dag() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    for entry in std::fs::read_dir(&crates).expect("read crates/") {
        let path = entry.expect("dir entry").path();
        let manifest = path.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let dir = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let upward = upward_edges(dir, &dependencies(&text));
        assert!(
            upward.is_empty(),
            "crates/{dir}/Cargo.toml depends on {upward:?}, above it in the crate DAG"
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        LAYERS.len(),
        "every crate in LAYERS has a manifest"
    );
}

#[test]
fn an_upward_manifest_edge_is_rejected() {
    let storage = "\
[package]
name = \"aimq-storage\"

[dependencies]
aimq-catalog.workspace = true
aimq-serve = { path = \"../serve\" }
rand.workspace = true

[dev-dependencies]
aimq = { path = \"../core\" }
";
    let deps = dependencies(storage);
    assert_eq!(deps, vec!["catalog", "serve"]);
    assert_eq!(upward_edges("storage", &deps), vec!["serve"]);
    assert!(upward_edges("core", &["storage", "afd"]).is_empty());
}

#[test]
fn probe_free_crates_cannot_reach_the_source() {
    // AIMQ learns its dependencies and similarities offline, from a
    // probed sample (paper, Sections 3-5). With `storage` out of reach,
    // `use aimq_storage::WebDatabase` fails to resolve in these crates,
    // so none of them can issue a probe; `manifests_follow_the_crate_dag`
    // keeps their manifests inside these rows.
    for dir in PROBE_FREE {
        let reach = reachable(dir);
        assert!(
            !reach.contains(&"storage"),
            "crate `{dir}` may reach `storage` through {reach:?}; it must stay probe-free"
        );
    }
    // The engine, by contrast, reaches the source through its row.
    assert!(reachable("core").contains(&"storage"));
}

/// Does `lib_rs` deny `lint` in a crate-level `#![deny(...)]` attribute?
/// (A mention in a doc comment does not count.)
fn denies(lib_rs: &str, lint: &str) -> bool {
    lib_rs.split("#![deny(").skip(1).any(|attr| {
        attr.split(")]")
            .next()
            .is_some_and(|lints| lints.split(',').any(|l| l.trim() == lint))
    })
}

#[test]
fn lint_scope_is_the_library_crates() {
    // Direct indexing, `partial_cmp` and the other clippy.toml bans bind
    // exactly the crates that promise panic-freedom at their root, so a
    // new library crate cannot fall out of their scope unnoticed.
    // `LAYERS` lists every crate (`manifests_follow_the_crate_dag`).
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for lint in [
        "clippy::unwrap_used",
        "clippy::indexing_slicing",
        "clippy::disallowed_types",
        "clippy::disallowed_methods",
    ] {
        let denying: Vec<&str> = LAYERS
            .iter()
            .map(|(dir, _)| *dir)
            .filter(|dir| {
                std::fs::read_to_string(crates.join(dir).join("src/lib.rs"))
                    .is_ok_and(|text| denies(&text, lint))
            })
            .collect();
        assert_eq!(denying, LIBRARY, "the crates whose lib.rs denies {lint}");
    }
    assert!(denies(
        "#![deny(\n    clippy::panic,\n    clippy::indexing_slicing\n)]",
        "clippy::indexing_slicing"
    ));
    assert!(!denies(
        "//! (`clippy::unwrap_used` and friends)",
        "clippy::unwrap_used"
    ));
}
