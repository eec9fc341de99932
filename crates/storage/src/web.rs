use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aimq_catalog::{Json, Schema, SelectionQuery, Tuple};
use serde::{Deserialize, Serialize};

use crate::{execute, Relation, StatsCell};

/// Why a probe against an autonomous source failed.
///
/// The taxonomy mirrors what real Web forms do under load (see DESIGN.md,
/// "Fault model & degradation semantics"): the first three variants are
/// *retryable* — the same query may succeed moments later — while
/// [`QueryError::Unavailable`] is terminal for the session (the source is
/// down, a circuit breaker is open, or a probe budget is exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum QueryError {
    /// The source did not answer within its deadline.
    Timeout,
    /// A transient failure (dropped connection, 5xx); retry may succeed.
    Transient,
    /// The source is shedding load and asks the client to come back after
    /// `retry_after` virtual-clock ticks (an HTTP 429 `Retry-After`).
    RateLimited {
        /// Ticks to wait before the source will accept another query.
        retry_after: u64,
    },
    /// The source is gone for this session; retrying is pointless.
    Unavailable,
}

impl QueryError {
    /// Whether a retry of the same query can possibly succeed.
    pub fn is_retryable(self) -> bool {
        !matches!(self, QueryError::Unavailable)
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Timeout => write!(f, "source timed out"),
            QueryError::Transient => write!(f, "transient source failure"),
            QueryError::RateLimited { retry_after } => {
                write!(f, "source rate-limited (retry after {retry_after} ticks)")
            }
            QueryError::Unavailable => write!(f, "source unavailable"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One page of results from a boolean probe query.
///
/// Real Web form interfaces cap the result page; `truncated` tells the
/// caller whether the page is the *complete* answer set of the query or
/// merely its first tuples. A small `tuples` with `truncated == false` is
/// an honest small answer; the same tuples with `truncated == true` mean
/// the query matched more than the source was willing to return.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPage {
    /// The satisfying tuples the source returned (possibly clipped).
    pub tuples: Vec<Tuple>,
    /// `true` when the source clipped the answer set to its page limit.
    pub truncated: bool,
}

impl QueryPage {
    /// A complete (untruncated) page.
    pub fn complete(tuples: Vec<Tuple>) -> Self {
        QueryPage {
            tuples,
            truncated: false,
        }
    }
}

/// Access meter for a Web database: how many boolean queries were issued
/// and how many tuples came back, plus the fault-tolerance counters.
///
/// The paper's efficiency measure (Section 6.3),
/// `Work/RelevantTuple = |T_Extracted| / |T_Relevant|`, needs exactly
/// `tuples_returned`; `queries_issued` additionally lets the benchmarks
/// report probing cost. The remaining counters are filled in by the
/// fault-tolerance decorators ([`crate::FaultInjectingWebDb`],
/// [`crate::ResilientWebDb`]) and by page truncation, so callers can tell
/// a clean run from a degraded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AccessStats {
    /// Number of selection queries attempted against the source (failed
    /// attempts included — a timed-out query was still issued).
    pub queries_issued: u64,
    /// Total number of tuples returned across all queries, after any
    /// page truncation (what the caller actually saw).
    pub tuples_returned: u64,
    /// Probe attempts that ended in a [`QueryError`], including attempts
    /// later absorbed by a retry and fast-fail rejections (open breaker,
    /// exhausted probe budget).
    pub failures: u64,
    /// Re-issues of a failed query by a resilience policy.
    pub retries: u64,
    /// Queries whose result page was clipped to the source's page limit.
    pub truncated_queries: u64,
    /// Times a circuit breaker transitioned closed → open.
    pub breaker_trips: u64,
    /// Times a half-open trial probe succeeded and closed the breaker.
    pub breaker_recoveries: u64,
    /// Probes answered from a [`crate::CachedWebDb`] memo without touching
    /// the source (not counted in [`AccessStats::queries_issued`]).
    pub cache_hits: u64,
    /// Probes that missed the cache and were forwarded to the source.
    pub cache_misses: u64,
    /// Cached pages evicted to respect the cache capacity bound.
    pub cache_evictions: u64,
}

impl AccessStats {
    /// Per-field difference `self - earlier`, saturating at zero — the
    /// usual "stats delta across one engine call" computation.
    #[must_use]
    pub fn since(&self, earlier: &AccessStats) -> AccessStats {
        AccessStats {
            queries_issued: self.queries_issued.saturating_sub(earlier.queries_issued),
            tuples_returned: self.tuples_returned.saturating_sub(earlier.tuples_returned),
            failures: self.failures.saturating_sub(earlier.failures),
            retries: self.retries.saturating_sub(earlier.retries),
            truncated_queries: self
                .truncated_queries
                .saturating_sub(earlier.truncated_queries),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
            breaker_recoveries: self
                .breaker_recoveries
                .saturating_sub(earlier.breaker_recoveries),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
        }
    }

    /// Per-field saturating sum of two meters, used by federating
    /// decorators that aggregate several member sources' stats into one
    /// view.
    #[must_use]
    pub fn merge(&self, other: &AccessStats) -> AccessStats {
        AccessStats {
            queries_issued: self.queries_issued.saturating_add(other.queries_issued),
            tuples_returned: self.tuples_returned.saturating_add(other.tuples_returned),
            failures: self.failures.saturating_add(other.failures),
            retries: self.retries.saturating_add(other.retries),
            truncated_queries: self
                .truncated_queries
                .saturating_add(other.truncated_queries),
            breaker_trips: self.breaker_trips.saturating_add(other.breaker_trips),
            breaker_recoveries: self
                .breaker_recoveries
                .saturating_add(other.breaker_recoveries),
            cache_hits: self.cache_hits.saturating_add(other.cache_hits),
            cache_misses: self.cache_misses.saturating_add(other.cache_misses),
            cache_evictions: self.cache_evictions.saturating_add(other.cache_evictions),
        }
    }

    /// The meter as a deterministic [`Json`] object — the single
    /// serialization path, served by the HTTP `/stats` route (field
    /// order is declaration order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queries_issued", Json::Num(self.queries_issued as f64)),
            ("tuples_returned", Json::Num(self.tuples_returned as f64)),
            ("failures", Json::Num(self.failures as f64)),
            ("retries", Json::Num(self.retries as f64)),
            (
                "truncated_queries",
                Json::Num(self.truncated_queries as f64),
            ),
            ("breaker_trips", Json::Num(self.breaker_trips as f64)),
            (
                "breaker_recoveries",
                Json::Num(self.breaker_recoveries as f64),
            ),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("cache_evictions", Json::Num(self.cache_evictions as f64)),
        ])
    }
}

/// Lock a stats mutex, recovering from poisoning instead of panicking:
/// the protected value is a plain counter block, always valid.
pub(crate) fn lock_stats<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // aimq-lint: allow(lock-discipline) -- generic helper; the lock family
    // is attributed at each call site, not here
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The autonomous Web database interface of the paper (Section 3.1).
///
/// Implementations expose *only* the boolean query-processing model: given
/// a conjunctive selection, return the satisfying tuples, unranked. AIMQ
/// must work without altering the underlying data model — everything it
/// learns, it learns by issuing queries through this trait.
///
/// The primary access point is [`WebDatabase::try_query`]: sources are
/// *fallible* (they time out, rate-limit, truncate and disappear), and the
/// engine degrades gracefully around those failures.
///
/// Implementations must be `Send + Sync`: the serving runtime
/// (`aimq-serve`) shares one decorated source across a pool of worker
/// threads, each probing through `&self`. Every implementation in this
/// crate carries its mutable state behind `Arc<Mutex<_>>` or atomics, so
/// the bound is structural, not a burden.
pub trait WebDatabase: Send + Sync {
    /// The relation schema the database projects (Web form fields).
    fn schema(&self) -> &Schema;

    /// Evaluate a boolean selection query, returning one result page or a
    /// typed failure.
    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError>;

    /// Evaluate an ordered relaxation plan of selections, returning one
    /// result per query in plan order.
    ///
    /// The default is the plain sequential loop every caller would
    /// otherwise write — query `i+1` is issued only after query `i`
    /// resolved, and the loop stops after the first *terminal*
    /// (non-retryable) error, returning the prefix evaluated so far.
    ///
    /// Every override keeps that loop's observable behaviour exactly:
    /// the same queries reach the inner source in the same order, the
    /// same pages come back, and every meter (access stats, cache
    /// counters, clocks, flags) ends where the loop leaves it. Overrides:
    ///
    /// - [`InMemoryWebDb`] evaluates the plan through one shared
    ///   [`crate::PlanExecutor`], computing the queries' common
    ///   subexpressions once.
    /// - [`crate::CachedWebDb`] answers hits in place and forwards its
    ///   misses inward as one sub-plan.
    ///
    /// [`crate::ResilientWebDb`], [`crate::FederatedWebDb`] and
    /// [`crate::FaultInjectingWebDb`] keep the default: their breaker,
    /// probe budget, virtual clock, hedging or fault ordinal change
    /// between entries, so forwarding a whole plan would change the
    /// traffic their inner sources see. The serving deadline decorator
    /// keeps it too, until a served workload with cache misses can
    /// measure a plan path there.
    // aimq-probe: entry -- sequential plan loop over try_query; per-query accounting unchanged
    fn try_query_plan(&self, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
        let mut out = Vec::with_capacity(plan.len());
        for q in plan {
            let result = self.try_query(q);
            let terminal = matches!(&result, Err(e) if !e.is_retryable());
            out.push(result);
            if terminal {
                break;
            }
        }
        out
    }

    /// Snapshot of the access meter. All fields are read as one torn-free
    /// snapshot (the seqlock [`StatsCell`]), so `Work/RelevantTuple`
    /// derived from a snapshot is internally consistent even under
    /// concurrent probing.
    fn stats(&self) -> AccessStats;

    /// Reset the access meter (used between experiment runs).
    fn reset_stats(&self);

    /// Per-source health breakdown, when this database federates several
    /// member sources (see `FederatedWebDb`). Single-source databases
    /// return `None`; decorators forward their inner database's answer so
    /// the breakdown survives caching/resilience/deadline wrapping.
    fn source_health(&self) -> Option<Vec<crate::SourceHealth>> {
        None
    }
}

/// An in-memory [`WebDatabase`] over a [`Relation`], standing in for the
/// paper's MySQL-backed Yahoo Autos / Census deployments.
///
/// Cloning shares the underlying relation *and* the meter. The meter is a
/// [`StatsCell`], so concurrent workers probing one shared source never
/// serialize on a stats mutex.
#[derive(Debug, Clone)]
pub struct InMemoryWebDb {
    relation: Arc<Relation>,
    stats: Arc<StatsCell>,
    /// Maximum tuples returned per query (`None` = unlimited). Real Web
    /// form interfaces cap result pages; AIMQ must cope with truncation.
    result_limit: Option<usize>,
}

impl InMemoryWebDb {
    /// Wrap a relation.
    pub fn new(relation: Relation) -> Self {
        InMemoryWebDb {
            relation: Arc::new(relation),
            stats: Arc::new(StatsCell::new()),
            result_limit: None,
        }
    }

    /// Cap every query's result at `limit` tuples, simulating a form
    /// interface that only serves the first page of matches. Clipped
    /// pages are flagged via [`QueryPage::truncated`] and counted in
    /// [`AccessStats::truncated_queries`].
    #[must_use]
    pub fn with_result_limit(mut self, limit: usize) -> Self {
        self.result_limit = Some(limit);
        self
    }

    /// Borrow the wrapped relation. Only evaluation/bench code uses this
    /// (to draw ground-truth workloads); the AIMQ engine sticks to the
    /// trait surface.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Clip `tuples` to the result limit and record the query in the
    /// meter — the one shared tail of [`WebDatabase::try_query`] and the
    /// plan override, so both paths meter identically.
    fn page_from_tuples(&self, mut tuples: Vec<Tuple>) -> QueryPage {
        let truncated = match self.result_limit {
            Some(limit) if tuples.len() > limit => {
                tuples.truncate(limit);
                true
            }
            _ => false,
        };
        self.stats.record(AccessStats {
            queries_issued: 1,
            tuples_returned: tuples.len() as u64,
            truncated_queries: u64::from(truncated),
            ..AccessStats::default()
        });
        QueryPage { tuples, truncated }
    }
}

impl WebDatabase for InMemoryWebDb {
    fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        Ok(self.page_from_tuples(execute(&self.relation, query)))
    }

    /// Shared-plan override: one [`crate::PlanExecutor`] evaluates the
    /// whole plan, so the queries' common subexpressions (above all the
    /// base intersection every relaxed query contains) are computed once.
    /// Pages and per-query meter records are byte-identical to the
    /// default sequential loop; an in-memory source never fails, so the
    /// terminal-stop clause is vacuous here.
    fn try_query_plan(&self, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
        let mut exec = crate::PlanExecutor::new(&self.relation);
        plan.iter()
            .map(|q| {
                let tuples = exec
                    .execute(q)
                    .into_iter()
                    .map(|r| self.relation.tuple(r))
                    .collect();
                Ok(self.page_from_tuples(tuples))
            })
            .collect()
    }

    fn stats(&self) -> AccessStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::{AttrId, Predicate, Value};

    fn db() -> InMemoryWebDb {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = [("Toyota", 10000.0), ("Honda", 9000.0), ("Toyota", 7000.0)]
            .iter()
            .map(|&(m, p)| Tuple::new(&schema, vec![Value::cat(m), Value::num(p)]).unwrap())
            .collect();
        InMemoryWebDb::new(Relation::from_tuples(schema, &tuples).unwrap())
    }

    #[test]
    fn boolean_query_model() {
        let db = db();
        let q = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))]);
        let answers = db.try_query(&q).unwrap().tuples;
        assert_eq!(answers.len(), 2);
        assert!(answers.iter().all(|t| q.matches(t)));
    }

    #[test]
    fn try_query_reports_complete_pages() {
        let db = db();
        let page = db.try_query(&SelectionQuery::all()).unwrap();
        assert_eq!(page.tuples.len(), 3);
        assert!(!page.truncated);
        assert_eq!(db.stats().truncated_queries, 0);
    }

    #[test]
    fn meter_counts_queries_and_tuples() {
        let db = db();
        assert_eq!(db.stats(), AccessStats::default());
        let q = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))]);
        db.try_query(&q).unwrap();
        db.try_query(&SelectionQuery::all()).unwrap();
        let s = db.stats();
        assert_eq!(s.queries_issued, 2);
        assert_eq!(s.tuples_returned, 2 + 3);
        assert_eq!(s.failures, 0);
        db.reset_stats();
        assert_eq!(db.stats(), AccessStats::default());
    }

    #[test]
    fn result_limit_truncates_pages_and_counts_it() {
        let db = db().with_result_limit(1);
        let page = db.try_query(&SelectionQuery::all()).unwrap();
        assert_eq!(page.tuples.len(), 1);
        assert!(page.truncated, "clipped page must be flagged");
        let s = db.stats();
        assert_eq!(s.tuples_returned, 1);
        assert_eq!(s.truncated_queries, 1);

        // A query whose full answer fits the page is NOT truncated.
        let q = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Honda"))]);
        let page = db.try_query(&q).unwrap();
        assert!(!page.truncated);
        assert_eq!(db.stats().truncated_queries, 1);
    }

    #[test]
    fn result_limit_exactly_at_len_is_not_truncation() {
        let db = db().with_result_limit(3);
        let page = db.try_query(&SelectionQuery::all()).unwrap();
        assert_eq!(page.tuples.len(), 3);
        assert!(!page.truncated);
        assert_eq!(db.stats().truncated_queries, 0);
    }

    #[test]
    fn clones_share_meter() {
        let db = db();
        let db2 = db.clone();
        db2.try_query(&SelectionQuery::all()).unwrap();
        assert_eq!(db.stats().queries_issued, 1);
    }

    #[test]
    fn stats_snapshot_is_single_lock_consistent() {
        // Hammer the meter from several threads; every snapshot must obey
        // the invariant `tuples_returned == 3 * queries_issued` (each
        // all-query returns all 3 tuples), which two separate relaxed
        // atomic loads would not guarantee. The meter moved from a
        // `Mutex<AccessStats>` to the seqlock `StatsCell`; this test pins
        // that the move kept snapshots torn-free.
        let db = db();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let worker = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    worker.try_query(&SelectionQuery::all()).unwrap();
                }
            }));
        }
        let reader = db.clone();
        let checker = std::thread::spawn(move || {
            for _ in 0..200 {
                let s = reader.stats();
                assert_eq!(
                    s.tuples_returned,
                    3 * s.queries_issued,
                    "snapshot tore: {s:?}"
                );
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        checker.join().unwrap();
        let s = db.stats();
        assert_eq!(s.queries_issued, 2000);
        assert_eq!(s.tuples_returned, 6000);
    }

    #[test]
    fn stats_delta_saturates() {
        let a = AccessStats {
            queries_issued: 5,
            ..AccessStats::default()
        };
        let b = AccessStats {
            queries_issued: 2,
            tuples_returned: 7,
            ..AccessStats::default()
        };
        let d = b.since(&a);
        assert_eq!(d.queries_issued, 0);
        assert_eq!(d.tuples_returned, 7);
    }

    #[test]
    fn stats_delta_covers_cache_counters() {
        let earlier = AccessStats {
            cache_hits: 10,
            cache_misses: 4,
            cache_evictions: 2,
            ..AccessStats::default()
        };
        let later = AccessStats {
            cache_hits: 25,
            cache_misses: 5,
            cache_evictions: 1,
            ..AccessStats::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.cache_hits, 15);
        assert_eq!(d.cache_misses, 1);
        assert_eq!(d.cache_evictions, 0, "deltas saturate at zero");
    }

    #[test]
    fn plan_override_matches_sequential_loop() {
        // The shared-plan override must be observationally identical to
        // the default per-query loop: same pages, same meter records.
        let toyota = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))]);
        let cheap = SelectionQuery::new(vec![Predicate {
            attr: AttrId(1),
            op: aimq_catalog::PredicateOp::Lt,
            value: Value::num(9500.0),
        }]);
        let plan = vec![
            toyota.clone(),
            SelectionQuery::all(),
            cheap.clone(),
            toyota.clone(), // duplicate probe: answered from the memo
        ];

        for limit in [None, Some(1), Some(2)] {
            let shared = match limit {
                Some(l) => db().with_result_limit(l),
                None => db(),
            };
            let sequential = shared.clone();
            sequential.reset_stats(); // clones share the meter; split below

            let batched: Vec<_> = shared.try_query_plan(&plan);
            let batch_stats = shared.stats();
            shared.reset_stats();
            let looped: Vec<_> = plan.iter().map(|q| sequential.try_query(q)).collect();
            let loop_stats = sequential.stats();

            assert_eq!(batched, looped, "limit {limit:?}");
            assert_eq!(batch_stats, loop_stats, "limit {limit:?}");
        }
    }

    #[test]
    fn default_plan_loop_runs_every_query() {
        let db = db();
        // Route through the trait's *default* method (not the override)
        // by wrapping in a pass-through implementor.
        struct PassThrough(InMemoryWebDb);
        impl WebDatabase for PassThrough {
            fn schema(&self) -> &Schema {
                self.0.schema()
            }
            // aimq-probe: entry -- test pass-through forwarding to the inner source
            fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
                self.0.try_query(query)
            }
            fn stats(&self) -> AccessStats {
                self.0.stats()
            }
            fn reset_stats(&self) {
                self.0.reset_stats()
            }
        }
        let wrapped = PassThrough(db.clone());
        let plan = vec![
            SelectionQuery::all(),
            SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Honda"))]),
        ];
        let results = wrapped.try_query_plan(&plan);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].as_ref().unwrap().tuples.len(), 3);
        assert_eq!(results[1].as_ref().unwrap().tuples.len(), 1);
        assert_eq!(db.stats().queries_issued, 2);
    }

    #[test]
    fn query_error_display_and_retryability() {
        assert!(QueryError::Timeout.is_retryable());
        assert!(QueryError::Transient.is_retryable());
        assert!(QueryError::RateLimited { retry_after: 3 }.is_retryable());
        assert!(!QueryError::Unavailable.is_retryable());
        assert!(QueryError::RateLimited { retry_after: 3 }
            .to_string()
            .contains("3 ticks"));
    }
}
