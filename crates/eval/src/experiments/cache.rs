//! **Probe economy — redundant-probe elimination on a CarDB query log.**
//!
//! Not a figure of the paper, but the paper's costing premise made
//! measurable: AIMQ's whole design brief is answering imprecise queries
//! over *autonomous* sources where every probe is a metered network
//! round-trip. Redundant probes arise at two grains:
//!
//! - **within one engine call** — Algorithm 1 re-issues the same relaxed
//!   query once per base tuple that relaxes into it (dense base sets
//!   share bucketed tuple queries, so their relaxation plans collide);
//! - **across the workload** — imprecise queries are popular by nature
//!   (the paper's motivating user wants "a Camry around $10,000", and so
//!   does the next user), so a query log repeats logical queries and
//!   near-duplicates whose probe plans overlap.
//!
//! The workload here is a query log: `n_queries` distinct imprecise
//! queries drawn from CarDB rows, the whole log issued [`REPEATS`]
//! times round-robin. Each profile replays it in three configurations:
//!
//! 1. **baseline** — the seed engine: per-call dedup off, no cache;
//!    every planned probe reaches the source.
//! 2. **dedup** — the probe planner canonicalizes the (base tuple ×
//!    relaxation step) plan and issues each distinct relaxed query once
//!    per engine call.
//! 3. **dedup+cache** — additionally, a [`aimq_storage::CachedWebDb`]
//!    memoizes pages *across* engine calls, outermost on the resilience
//!    stack so hits cost no probe budget, no breaker state and no
//!    fault-schedule ordinal.
//!
//! Headline claim (ISSUE 3 acceptance): on the fault-free profile the
//! cached configuration issues **≥ 40% fewer** source queries than the
//! baseline while returning byte-identical top-k answers and an
//! identical [`aimq::DegradationReport`] per call against the dedup
//! run. Under `flaky`/`hostile` the cross-call identity claim is
//! structurally out of reach — serving a hit skips a fault-schedule
//! ordinal and thereby shifts every later probe's fate — so there the
//! runner reports the reduction and the identity columns as observed;
//! the per-call identity guarantee for all profiles is property-tested
//! in `tests/probe_cache.rs`.

use aimq::{AnswerSet, EngineConfig};
use aimq_catalog::ImpreciseQuery;
use aimq_data::CarDb;
use aimq_storage::{
    CachedWebDb, FaultInjectingWebDb, FaultProfile, InMemoryWebDb, Relation, ResilientWebDb,
    RetryPolicy, WebDatabase,
};

use crate::experiments::common::{pick_query_rows, train_cardb};
use crate::{Scale, TextTable};

/// How many times the query log is replayed (first pass populates the
/// cache, later passes are the popular-query traffic it serves).
pub const REPEATS: usize = 2;

/// Probe counts and identity checks for one fault profile.
#[derive(Debug, Clone)]
pub struct CacheOutcome {
    /// Profile name (`none`, `flaky`, `hostile`).
    pub profile: String,
    /// Source queries issued by the seed-equivalent engine (no dedup,
    /// no cache) over the whole log.
    pub baseline_issued: u64,
    /// Source queries issued with per-call probe-plan dedup only.
    pub dedup_issued: u64,
    /// Source queries issued with dedup plus the cross-call cache.
    pub cached_issued: u64,
    /// Cache hits recorded by the memoizing layer.
    pub cache_hits: u64,
    /// Probes replayed by the per-call planner memo over the dedup run.
    pub probes_deduped: u64,
    /// `1 − cached/baseline`: the fraction of the seed engine's probes
    /// the full stack eliminated.
    pub reduction: f64,
    /// Whether the cached run's ranked top-k matched the baseline's on
    /// every log entry (guaranteed only for `none`; see module docs).
    pub top_k_identical: bool,
    /// Whether the cached run's full fingerprint (ranked answers with
    /// similarity bits + degradation report) matched the dedup run's on
    /// every log entry.
    pub fingerprint_identical: bool,
}

/// Result of the probe-economy run.
#[derive(Debug, Clone)]
pub struct CacheResult {
    /// One outcome per profile, in `none`/`flaky`/`hostile` order.
    pub outcomes: Vec<CacheOutcome>,
    /// Number of distinct workload queries.
    pub n_queries: usize,
    /// Total engine calls per configuration (`n_queries × REPEATS`).
    pub n_issues: usize,
}

impl CacheResult {
    /// The outcome for a named profile.
    pub fn outcome(&self, profile: &str) -> Option<&CacheOutcome> {
        self.outcomes.iter().find(|o| o.profile == profile)
    }

    /// Render the matrix.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            format!(
                "Probe economy: source queries issued per configuration \
                 ({} distinct queries x {} passes)",
                self.n_queries, REPEATS
            ),
            &[
                "profile",
                "baseline",
                "dedup",
                "dedup+cache",
                "hits",
                "deduped",
                "reduction",
                "top-k ==",
                "fingerprint ==",
            ],
        );
        for o in &self.outcomes {
            t.row(vec![
                o.profile.clone(),
                o.baseline_issued.to_string(),
                o.dedup_issued.to_string(),
                o.cached_issued.to_string(),
                o.cache_hits.to_string(),
                o.probes_deduped.to_string(),
                format!("{:.1}%", o.reduction * 100.0),
                o.top_k_identical.to_string(),
                o.fingerprint_identical.to_string(),
            ]);
        }
        t
    }
}

/// Byte-comparable fingerprint of one engine call: degradation report
/// plus the ranked answers with their similarity bit patterns.
fn fingerprint(result: &AnswerSet) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{:?}", result.degradation);
    for a in &result.answers {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write to a String is infallible"
        )]
        let _ = write!(out, " | {:?}@{:016x}", a.tuple, a.similarity.to_bits());
    }
    out
}

/// Ranked top-k tuples only (no degradation, no similarity bits).
fn ranked_tuples(result: &AnswerSet) -> Vec<String> {
    result
        .answers
        .iter()
        .map(|a| format!("{:?}", a.tuple))
        .collect()
}

/// The resilience stack every configuration answers through.
fn stack(
    relation: &Relation,
    profile: FaultProfile,
    seed: u64,
) -> ResilientWebDb<FaultInjectingWebDb<InMemoryWebDb>> {
    ResilientWebDb::new(
        FaultInjectingWebDb::new(InMemoryWebDb::new(relation.clone()), profile, seed),
        RetryPolicy::default(),
    )
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> CacheResult {
    let relation = CarDb::generate(scale.cardb(), seed);
    let sample = relation.random_sample(scale.size(25_000), seed.wrapping_add(1));
    let system = train_cardb(&sample);

    let n_queries = scale.count(10);
    let query_rows = pick_query_rows(&relation, n_queries, seed.wrapping_add(2));
    let queries: Vec<ImpreciseQuery> = query_rows
        .iter()
        .map(|&row| ImpreciseQuery::from_tuple(&relation.tuple(row)).expect("non-null tuple"))
        .collect();
    // The query log: every distinct query, REPEATS passes, round-robin —
    // so a repeat is separated from its first arrival by the whole log,
    // exercising retention rather than just adjacent-call locality.
    let log: Vec<&ImpreciseQuery> = (0..REPEATS).flat_map(|_| queries.iter()).collect();

    let dedup_config = EngineConfig {
        t_sim: 0.5,
        top_k: 10,
        ..EngineConfig::default()
    };
    let baseline_config = EngineConfig {
        dedup_probes: false,
        ..dedup_config
    };

    let mut outcomes = Vec::new();
    for profile_name in ["none", "flaky", "hostile"] {
        let profile = FaultProfile::by_name(profile_name).expect("built-in profile");

        // 1. Seed-equivalent engine: every planned probe is issued.
        let db = stack(&relation, profile, seed);
        let baseline_runs: Vec<AnswerSet> = log
            .iter()
            .map(|q| system.answer(&db, q, &baseline_config))
            .collect();
        let baseline_issued = db.stats().queries_issued;

        // 2. Per-call probe-plan dedup.
        let db = stack(&relation, profile, seed);
        let dedup_runs: Vec<AnswerSet> = log
            .iter()
            .map(|q| system.answer(&db, q, &dedup_config))
            .collect();
        let dedup_issued = db.stats().queries_issued;

        // 3. Dedup plus the cross-call memoizing cache, outermost.
        let db = CachedWebDb::with_default_capacity(stack(&relation, profile, seed));
        let cached_runs: Vec<AnswerSet> = log
            .iter()
            .map(|q| system.answer(&db, q, &dedup_config))
            .collect();
        let cached_stats = db.stats();

        outcomes.push(CacheOutcome {
            profile: profile_name.to_owned(),
            baseline_issued,
            dedup_issued,
            cached_issued: cached_stats.queries_issued,
            cache_hits: cached_stats.cache_hits,
            probes_deduped: dedup_runs
                .iter()
                .map(|r| r.degradation.probes_deduped)
                .sum(),
            reduction: if baseline_issued == 0 {
                0.0
            } else {
                1.0 - cached_stats.queries_issued as f64 / baseline_issued as f64
            },
            top_k_identical: baseline_runs
                .iter()
                .zip(&cached_runs)
                .all(|(a, c)| ranked_tuples(a) == ranked_tuples(c)),
            fingerprint_identical: dedup_runs
                .iter()
                .zip(&cached_runs)
                .all(|(d, c)| fingerprint(d) == fingerprint(c)),
        });
    }

    CacheResult {
        outcomes,
        n_queries,
        n_issues: log.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> CacheResult {
        run(Scale::quick(), 23)
    }

    #[test]
    fn fault_free_reduction_meets_the_forty_percent_floor() {
        let r = result();
        let none = r.outcome("none").unwrap();
        assert!(
            none.reduction >= 0.4,
            "cache+dedup cut only {:.1}% of {} baseline probes",
            none.reduction * 100.0,
            none.baseline_issued
        );
    }

    #[test]
    fn fault_free_answers_are_byte_identical_across_configurations() {
        let r = result();
        let none = r.outcome("none").unwrap();
        assert!(none.top_k_identical, "{none:?}");
        assert!(none.fingerprint_identical, "{none:?}");
    }

    #[test]
    fn probe_counts_only_ever_shrink() {
        // The cache serves a strict subset of the probe stream under
        // every profile; within the deterministic profile, the per-call
        // memo too can only remove issues.
        let r = result();
        for o in &r.outcomes {
            assert!(o.cached_issued <= o.baseline_issued, "{o:?}");
        }
        let none = r.outcome("none").unwrap();
        assert!(
            none.cached_issued <= none.dedup_issued && none.dedup_issued <= none.baseline_issued,
            "{none:?}"
        );
    }

    #[test]
    fn the_cache_actually_hits_across_calls() {
        let r = result();
        for o in &r.outcomes {
            assert!(o.cache_hits > 0, "{o:?}");
        }
    }

    #[test]
    fn same_seed_reruns_are_identical() {
        let a = result();
        let b = result();
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn render_has_a_row_per_profile() {
        assert_eq!(result().render().len(), 3);
    }
}
