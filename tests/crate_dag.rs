//! The workspace crate DAG, checked over `crates/*/Cargo.toml`.
//!
//! Cargo already rejects a `use` of a crate the manifest never declared,
//! so layering reduces to one property of the manifests: every aimq
//! crate named under `[dependencies]` sits strictly below the declaring
//! crate. Dev-dependencies are exempt (test harnesses may reach across
//! the DAG).

use std::path::Path;

/// Each crate directory and the crate directories it may depend on:
/// catalog → storage → {afd, sim} → rock → core → serve → {http, cli,
/// eval, bench}, with `data` a leaf over catalog/storage.
const LAYERS: &[(&str, &[&str])] = &[
    ("catalog", &[]),
    ("storage", &["catalog"]),
    ("data", &["catalog", "storage"]),
    ("afd", &["catalog", "storage"]),
    ("sim", &["catalog", "storage", "afd"]),
    ("rock", &["catalog", "storage", "afd", "sim"]),
    ("core", &["catalog", "storage", "afd", "sim", "rock"]),
    (
        "serve",
        &["catalog", "storage", "afd", "sim", "rock", "core"],
    ),
    (
        "http",
        &["catalog", "storage", "afd", "sim", "rock", "core", "serve"],
    ),
    (
        "eval",
        &[
            "catalog", "storage", "data", "afd", "sim", "rock", "core", "serve",
        ],
    ),
    (
        "cli",
        &[
            "catalog", "storage", "data", "afd", "sim", "rock", "core", "serve", "http", "eval",
        ],
    ),
    (
        "bench",
        &[
            "catalog", "storage", "data", "afd", "sim", "rock", "core", "serve", "http", "eval",
        ],
    ),
    ("xtask", &[]),
];

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

/// Dependencies of crate `dir` that the DAG does not allow below it.
fn upward_edges<'a>(dir: &str, deps: &[&'a str]) -> Vec<&'a str> {
    let (_, allowed) = LAYERS
        .iter()
        .find(|(name, _)| *name == dir)
        .unwrap_or_else(|| panic!("crate `{dir}` has no row in LAYERS; place it in the DAG"));
    deps.iter()
        .copied()
        .filter(|dep| !allowed.contains(dep))
        .collect()
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
