//! The JSON wire contract, pinned by rendering it.
//!
//! Every `to_json()` in the workspace reaches clients through the HTTP
//! front door, the bench reports or both, so its shape is a contract.
//! This test builds fixed sample values for each one, renders them with
//! the real code and compares the result byte for byte with
//! `results/WIRE_GOLDEN.txt` (one `<label> <compact JSON>` line per
//! sample). That pins key names, key order, value kinds and number
//! formatting at once. A mismatch prints the full new rendering; review
//! it like any other contract change and commit it as the new golden
//! file.
//!
//! Two more guards ride along: no rendered object may repeat a key, and
//! every `fn to_json(` under `crates/*/src/` must have a sample here, so
//! a new wire shape cannot slip in unpinned.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use aimq_suite::catalog::{AttrId, Json, Predicate, Schema, SelectionQuery, Tuple, Value};
use aimq_suite::engine::{
    AnswerSet, Completeness, DegradationReport, EngineConfig, Provenance, RankedAnswer, WorkStats,
};
use aimq_suite::http::HttpStats;
use aimq_suite::serve::ServeStatsSnapshot;
use aimq_suite::storage::{AccessStats, SourceHealth};

const GOLDEN: &str = "results/WIRE_GOLDEN.txt";

/// One rendered sample: the file declaring the `to_json`, the type it
/// belongs to, a label unique across the golden file, and the output.
struct Sample {
    file: &'static str,
    ty: &'static str,
    label: String,
    json: Json,
}

fn sample(file: &'static str, ty: &'static str, case: &str, json: Json) -> Sample {
    Sample {
        file,
        ty,
        label: format!("{ty}/{case}"),
        json,
    }
}

/// The two-attribute schema the schema-taking samples render against.
fn schema() -> Schema {
    Schema::builder("Cars")
        .categorical("Make")
        .numeric("Price")
        .build()
        .expect("two distinct attribute names")
}

fn tuple(schema: &Schema, make: Value, price: Value) -> Tuple {
    Tuple::new(schema, vec![make, price]).expect("values match the schema domains")
}

/// Every [`Value`] variant; the exhaustive match fails to compile when
/// a variant is added, until it is given a sample here.
fn every_value() -> Vec<(&'static str, Value)> {
    let mut out = Vec::new();
    let mut next = Some(Value::Null);
    while let Some(value) = next {
        let (case, following) = match &value {
            Value::Null => ("null", Some(Value::cat("Ford"))),
            Value::Cat(_) => ("cat", Some(Value::num(15999.5))),
            Value::Num(_) => ("num", None),
        };
        out.push((case, value));
        next = following;
    }
    out
}

/// Every [`Provenance`] variant, listed through an exhaustive match.
fn every_provenance() -> Vec<(&'static str, Provenance)> {
    let mut out = Vec::new();
    let mut next = Some(Provenance::BaseSet);
    while let Some(provenance) = next {
        let (case, following) = match &provenance {
            Provenance::BaseSet => ("base_set", Some(Provenance::External)),
            Provenance::External => (
                "external",
                Some(Provenance::Relaxed {
                    base_index: 3,
                    relaxed_attrs: vec![AttrId(1)],
                }),
            ),
            Provenance::Relaxed { .. } => ("relaxed", None),
        };
        out.push((case, provenance));
        next = following;
    }
    out
}

fn source_health(name: &str, breaker_open: bool) -> SourceHealth {
    SourceHealth {
        name: name.to_string(),
        probes_attempted: 12,
        probes_failed: 2,
        tuples_contributed: 7,
        hedges_fired: 3,
        hedges_won: 1,
        breaker_open,
    }
}

/// One [`DegradationReport`] per [`Completeness`] variant, listed
/// through an exhaustive match; the partial one carries a federation's
/// per-source breakdown.
fn every_degradation() -> Vec<(&'static str, DegradationReport)> {
    let mut out = Vec::new();
    let mut next = Some(Completeness::Full);
    while let Some(completeness) = next {
        let (case, following, report) = match completeness {
            Completeness::Full => (
                "full",
                Some(Completeness::Partial),
                DegradationReport {
                    probes_attempted: 9,
                    probes_deduped: 4,
                    ..DegradationReport::default()
                },
            ),
            Completeness::Partial => (
                "partial",
                Some(Completeness::Empty),
                DegradationReport {
                    probes_attempted: 20,
                    probes_deduped: 5,
                    probes_failed: 3,
                    probes_skipped: 6,
                    levels_abandoned: 1,
                    truncated_pages: 2,
                    retries: 4,
                    breaker_trips: 1,
                    source_lost: false,
                    sources: vec![source_health("s0", false), source_health("s1", true)],
                    completeness,
                },
            ),
            Completeness::Empty => (
                "empty",
                None,
                DegradationReport {
                    probes_attempted: 1,
                    probes_failed: 1,
                    source_lost: true,
                    completeness,
                    ..DegradationReport::default()
                },
            ),
        };
        out.push((case, report));
        next = following;
    }
    out
}

/// Every sample, in golden-file order.
fn samples() -> Vec<Sample> {
    let schema = schema();
    let ford = tuple(&schema, Value::cat("Ford"), Value::num(15000.0));
    let mut out = Vec::new();

    for (case, value) in every_value() {
        out.push(sample(
            "crates/catalog/src/value.rs",
            "Value",
            case,
            value.to_json(),
        ));
    }
    out.push(sample(
        "crates/catalog/src/tuple.rs",
        "Tuple",
        "bound",
        ford.to_json(&schema),
    ));
    out.push(sample(
        "crates/catalog/src/tuple.rs",
        "Tuple",
        "null_cell",
        tuple(&schema, Value::cat("Honda"), Value::Null).to_json(&schema),
    ));

    let engine = "crates/core/src/engine.rs";
    out.push(sample(
        engine,
        "EngineConfig",
        "target_relevant_none",
        EngineConfig::default().to_json(),
    ));
    out.push(sample(
        engine,
        "EngineConfig",
        "target_relevant_some",
        EngineConfig {
            t_sim: 0.75,
            target_relevant: Some(20),
            dedup_probes: false,
            ..EngineConfig::default()
        }
        .to_json(),
    ));
    let stats = WorkStats {
        queries_issued: 14,
        tuples_extracted: 130,
        tuples_examined: 96,
        relevant_found: 11,
    };
    out.push(sample(engine, "WorkStats", "counts", stats.to_json()));
    let degradations = every_degradation();
    for (case, report) in &degradations {
        out.push(sample(engine, "DegradationReport", case, report.to_json()));
    }
    for (case, provenance) in every_provenance() {
        out.push(sample(
            engine,
            "Provenance",
            case,
            provenance.to_json(&schema),
        ));
    }
    let answers = vec![
        RankedAnswer {
            tuple: ford.clone(),
            similarity: 1.0,
            provenance: Provenance::BaseSet,
        },
        RankedAnswer {
            tuple: tuple(&schema, Value::cat("Ford"), Value::num(17250.0)),
            similarity: 0.8125,
            provenance: Provenance::Relaxed {
                base_index: 0,
                relaxed_attrs: vec![AttrId(1)],
            },
        },
    ];
    for (case, answer) in ["base_set", "relaxed"].into_iter().zip(&answers) {
        out.push(sample(
            engine,
            "RankedAnswer",
            case,
            answer.to_json(&schema),
        ));
    }
    let answer_set = AnswerSet {
        answers,
        stats,
        base_query: SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Ford"))]),
        base_set_size: 1,
        degradation: degradations
            .into_iter()
            .map(|(_, report)| report)
            .find(DegradationReport::is_degraded)
            .expect("a degraded sample is listed"),
    };
    out.push(sample(
        engine,
        "AnswerSet",
        "partial",
        answer_set.to_json(&schema),
    ));

    out.push(sample(
        "crates/serve/src/stats.rs",
        "ServeStatsSnapshot",
        "counts",
        ServeStatsSnapshot {
            submitted: 40,
            admitted: 37,
            rejected: 3,
            completed: 35,
            deadline_missed: 2,
            replies_dropped: 0,
            max_queue_depth: 6,
            latency_ticks_total: 812,
            latency_hist: vec![0, 4, 20, 13],
            worker_processed: vec![19, 18],
        }
        .to_json(),
    ));

    out.push(sample(
        "crates/http/src/routes.rs",
        "HttpStats",
        "fresh",
        HttpStats::default().to_json(),
    ));
    out.push(sample(
        "crates/storage/src/web.rs",
        "AccessStats",
        "counts",
        AccessStats {
            queries_issued: 14,
            tuples_returned: 130,
            failures: 2,
            retries: 3,
            truncated_queries: 1,
            breaker_trips: 1,
            breaker_recoveries: 1,
            cache_hits: 9,
            cache_misses: 5,
            cache_evictions: 0,
        }
        .to_json(),
    ));
    out.push(sample(
        "crates/storage/src/federated.rs",
        "SourceHealth",
        "open_breaker",
        source_health("s1", true).to_json(),
    ));
    out
}

fn render(samples: &[Sample]) -> String {
    samples
        .iter()
        .map(|s| format!("{} {}\n", s.label, s.json.to_string_compact()))
        .collect()
}

#[test]
fn every_to_json_renders_its_golden_line() {
    let rendered = render(&samples());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let checked_in = std::fs::read_to_string(&path).unwrap_or_default();
    if checked_in != rendered {
        let first_diff = checked_in
            .lines()
            .zip(rendered.lines())
            .position(|(old, new)| old != new)
            .unwrap_or_else(|| checked_in.lines().count().min(rendered.lines().count()));
        panic!(
            "{GOLDEN} does not match the rendered wire shapes (first difference at line {}). \
             Review the new rendering below as a wire-contract change and commit it as \
             {GOLDEN}:\n{rendered}",
            first_diff + 1
        );
    }
}

/// Fail on an object that repeats a key anywhere inside `json`:
/// `Json::get` reads the first copy, other clients may read the last.
fn assert_unique_keys(label: &str, json: &Json) {
    match json {
        Json::Obj(pairs) => {
            let mut seen = BTreeSet::new();
            for (key, value) in pairs {
                assert!(
                    seen.insert(key.as_str()),
                    "{label}: key `{key}` appears twice in one object"
                );
                assert_unique_keys(label, value);
            }
        }
        Json::Arr(items) => {
            for item in items {
                assert_unique_keys(label, item);
            }
        }
        Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => {}
    }
}

#[test]
fn no_rendered_object_repeats_a_key() {
    for s in samples() {
        assert_unique_keys(&s.label, &s.json);
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_to_json_in_the_workspace_has_a_sample() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found: BTreeMap<String, usize> = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        if !dir.join("src").is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&dir.join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).expect("read source file");
            let count = text.matches("fn to_json(").count();
            if count > 0 {
                let rel = file.strip_prefix(root).expect("under the root");
                found.insert(rel.display().to_string(), count);
            }
        }
    }
    let mut sampled: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    let samples = samples();
    for s in &samples {
        sampled.entry(s.file.to_string()).or_default().insert(s.ty);
    }
    let declared: BTreeMap<String, usize> = sampled
        .into_iter()
        .map(|(file, types)| (file, types.len()))
        .collect();
    assert_eq!(
        found, declared,
        "`fn to_json(` count per file (left) must equal the sampled types per file (right); \
         give each new `to_json` a sample in tests/wire_golden.rs"
    );
}
