//! Deterministic fault injection for autonomous sources.
//!
//! [`FaultInjectingWebDb`] decorates any [`WebDatabase`] with a *seeded,
//! replayable* fault schedule: per-query transient/timeout failures,
//! periodic rate-limit bursts, page truncation and (rarely) terminal
//! outages. Two runs with the same seed and the same query sequence see
//! byte-identical faults — the property the resilience layer's tests and
//! PR 1's determinism suite build on.
//!
//! The schedule is a pure function of `(seed, query ordinal)`: every call
//! to [`WebDatabase::try_query`] consumes exactly one position of the
//! schedule, whether it fails or not. Retries issued by a wrapper consume
//! *further* positions, which is what makes retry-until-success converge
//! under any nonzero success probability.

use std::sync::Arc;

use aimq_catalog::{Leaf, Plain, Schema, SelectionQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{AccessStats, QueryError, QueryPage, WebDatabase};

/// Periodic rate-limit bursts: after every `period` admitted queries the
/// source rejects the next `burst` attempts with
/// [`QueryError::RateLimited`], echoing `retry_after` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitWindow {
    /// Queries admitted between bursts.
    pub period: u64,
    /// Consecutive attempts rejected once a burst starts.
    pub burst: u64,
    /// `Retry-After` hint carried by the rejections (virtual ticks).
    pub retry_after: u64,
}

/// Probabilistic page clipping: with `probability`, a successful page is
/// truncated to at most `max_tuples` tuples (flagged via
/// [`QueryPage::truncated`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationPolicy {
    /// Chance that a successful query's page is clipped.
    pub probability: f64,
    /// Page cap applied when the clip triggers.
    pub max_tuples: usize,
}

/// The per-query fault distribution of a simulated unreliable source.
///
/// Probabilities are evaluated in order — rate-limit window first (it is
/// counter-based, not probabilistic), then `unavailable_probability`,
/// `timeout_probability`, `transient_probability` on a single uniform
/// draw — so their sum must stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Chance of a [`QueryError::Transient`] failure per query.
    pub transient_probability: f64,
    /// Chance of a [`QueryError::Timeout`] per query.
    pub timeout_probability: f64,
    /// Chance of a terminal [`QueryError::Unavailable`] per query.
    pub unavailable_probability: f64,
    /// Periodic rate-limit bursts, if any.
    pub rate_limit: Option<RateLimitWindow>,
    /// Probabilistic page truncation, if any.
    pub truncation: Option<TruncationPolicy>,
}

impl FaultProfile {
    /// A perfectly healthy source: every fault channel disabled.
    pub fn none() -> Self {
        FaultProfile {
            transient_probability: 0.0,
            timeout_probability: 0.0,
            unavailable_probability: 0.0,
            rate_limit: None,
            truncation: None,
        }
    }

    /// The evaluation's `flaky` profile: 10% transient failures, nothing
    /// else — the acceptance workload for retry-driven recovery.
    pub fn flaky() -> Self {
        FaultProfile {
            transient_probability: 0.10,
            ..FaultProfile::none()
        }
    }

    /// The evaluation's `hostile` profile: transient failures *and*
    /// timeouts, periodic rate-limit bursts, and aggressive page
    /// truncation.
    pub fn hostile() -> Self {
        FaultProfile {
            transient_probability: 0.05,
            timeout_probability: 0.05,
            unavailable_probability: 0.0,
            rate_limit: Some(RateLimitWindow {
                period: 20,
                burst: 3,
                retry_after: 4,
            }),
            truncation: Some(TruncationPolicy {
                probability: 0.25,
                max_tuples: 5,
            }),
        }
    }

    /// Resolve one of the named CI-matrix profiles (`none`, `flaky`,
    /// `hostile`).
    pub fn by_name(name: &str) -> Option<FaultProfile> {
        match name {
            "none" => Some(FaultProfile::none()),
            "flaky" => Some(FaultProfile::flaky()),
            "hostile" => Some(FaultProfile::hostile()),
            _ => None,
        }
    }

    /// `true` when every fault channel is disabled.
    pub fn is_benign(&self) -> bool {
        self.transient_probability <= 0.0
            && self.timeout_probability <= 0.0
            && self.unavailable_probability <= 0.0
            && self.rate_limit.is_none()
            && self.truncation.is_none()
    }
}

/// How a [`FaultInjectingWebDb`] assigns fates to queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    /// The historical contract: fate is a pure function of
    /// `(seed, query ordinal)` — every call consumes one schedule
    /// position, so retries see fresh draws and converge.
    Sequenced,
    /// Fate is a pure function of `(seed, canonical query)` via
    /// [`SelectionQuery::stable_hash`]: the same probe meets the same
    /// fate at any position, from any thread, in any interleaving. This
    /// is the mode concurrent-replay tests use — serial and shuffled
    /// multi-threaded replays of a query log observe identical per-query
    /// outcomes. Ordinal-based rate-limit windows are *inactive* in this
    /// mode (a burst window is inherently a property of the call
    /// sequence, which keyed scheduling deliberately ignores), and a
    /// retry of a failed query redraws the same fate, so pair keyed
    /// injection with a cache rather than a retry layer.
    Keyed,
}

/// Mutable schedule state, behind one mutex so clones share the stream.
#[derive(Debug)]
struct FaultState {
    rng: StdRng,
    /// Ordinal of the next query (schedule position).
    calls: u64,
    /// Failures injected by this decorator.
    injected_failures: u64,
    /// Pages clipped by this decorator.
    injected_truncations: u64,
    /// Tuples removed from pages by decorator-level clipping (the inner
    /// meter counted them before we clipped).
    clipped_tuples: u64,
}

/// The schedule cursor, its RNG and tallies.
impl Plain for FaultState {}
/// Probabilities and windows.
impl Plain for FaultProfile {}
/// A two-variant tag.
impl Plain for FaultMode {}

/// A [`WebDatabase`] decorator that injects faults from a seeded,
/// deterministic schedule. See the module docs for the replay contract.
///
/// Cloning shares the inner database, the schedule position and the
/// meters.
#[derive(Debug, Clone)]
pub struct FaultInjectingWebDb<D> {
    inner: D,
    profile: FaultProfile,
    seed: u64,
    mode: FaultMode,
    state: Arc<Leaf<FaultState>>,
}

impl<D: WebDatabase> FaultInjectingWebDb<D> {
    /// Decorate `inner` with faults drawn from `profile`, scheduled by
    /// `seed`.
    pub fn new(inner: D, profile: FaultProfile, seed: u64) -> Self {
        Self::with_mode(inner, profile, seed, FaultMode::Sequenced)
    }

    /// Decorate `inner` with *keyed* faults: each query's fate is a pure
    /// function of `(seed, canonical query)`, independent of call order
    /// and thread interleaving. Concurrent replays of a query log
    /// therefore observe exactly the per-query outcomes of a serial
    /// replay. Ordinal-based rate-limit windows in `profile` are ignored
    /// in this mode, and retries redraw the same fate — see the caveats
    /// on the mode itself.
    pub fn keyed(inner: D, profile: FaultProfile, seed: u64) -> Self {
        Self::with_mode(inner, profile, seed, FaultMode::Keyed)
    }

    fn with_mode(inner: D, profile: FaultProfile, seed: u64, mode: FaultMode) -> Self {
        FaultInjectingWebDb {
            inner,
            profile,
            seed,
            mode,
            state: Arc::new(Leaf::new(FaultState {
                rng: StdRng::seed_from_u64(seed),
                calls: 0,
                injected_failures: 0,
                injected_truncations: 0,
                clipped_tuples: 0,
            })),
        }
    }

    /// The active fault profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// `true` when fates are keyed on the query rather than sequenced by
    /// call ordinal.
    pub fn is_keyed(&self) -> bool {
        self.mode == FaultMode::Keyed
    }

    /// Borrow the decorated database.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Decide the fate of the next query. Returns `Ok(clip)` where `clip`
    /// is an optional page cap, or the injected error.
    fn schedule_next(&self, query: &SelectionQuery) -> Result<Option<usize>, QueryError> {
        let input = (&self.profile, self.mode, self.seed, query);
        self.state.with(input, FaultState::schedule)
    }
}

impl FaultState {
    /// The schedule step behind [`FaultInjectingWebDb::schedule_next`].
    fn schedule(
        &mut self,
        (profile, mode, seed, query): (&FaultProfile, FaultMode, u64, &SelectionQuery),
    ) -> Result<Option<usize>, QueryError> {
        let ordinal = self.calls;
        self.calls = self.calls.saturating_add(1);

        if mode == FaultMode::Sequenced {
            if let Some(window) = profile.rate_limit {
                let cycle = window.period.saturating_add(window.burst);
                if window.burst > 0
                    && ordinal
                        .checked_rem(cycle)
                        .is_some_and(|phase| phase >= window.period)
                {
                    self.injected_failures = self.injected_failures.saturating_add(1);
                    return Err(QueryError::RateLimited {
                        retry_after: window.retry_after,
                    });
                }
            }
        }

        // One uniform draw decides the probabilistic channels; a second
        // (drawn only on success) decides truncation. Keeping the draw
        // count fixed per outcome keeps the schedule replayable. In
        // keyed mode the draws come from a throwaway RNG seeded from the
        // query, not from the shared stream — the shared stream is not
        // advanced at all, so sequenced clones are unaffected.
        let mut keyed_rng;
        let rng: &mut StdRng = match mode {
            FaultMode::Sequenced => &mut self.rng,
            FaultMode::Keyed => {
                keyed_rng = StdRng::seed_from_u64(seed ^ query.stable_hash());
                &mut keyed_rng
            }
        };
        let u: f64 = rng.random();
        let mut edge = profile.unavailable_probability;
        if u < edge {
            self.injected_failures = self.injected_failures.saturating_add(1);
            return Err(QueryError::Unavailable);
        }
        edge += profile.timeout_probability;
        if u < edge {
            self.injected_failures = self.injected_failures.saturating_add(1);
            return Err(QueryError::Timeout);
        }
        edge += profile.transient_probability;
        if u < edge {
            self.injected_failures = self.injected_failures.saturating_add(1);
            return Err(QueryError::Transient);
        }

        if let Some(policy) = profile.truncation {
            let v: f64 = rng.random();
            if v < policy.probability {
                return Ok(Some(policy.max_tuples));
            }
        }
        Ok(None)
    }
}

impl<D: WebDatabase> WebDatabase for FaultInjectingWebDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let clip = self.schedule_next(query)?;
        let mut page = self.inner.try_query(query)?;
        if let Some(max_tuples) = clip {
            if page.tuples.len() > max_tuples {
                let clipped = page.tuples.len().saturating_sub(max_tuples) as u64;
                page.tuples.truncate(max_tuples);
                page.truncated = true;
                self.state.with(clipped, |state, clipped| {
                    state.injected_truncations = state.injected_truncations.saturating_add(1);
                    state.clipped_tuples = state.clipped_tuples.saturating_add(clipped);
                });
            }
        }
        Ok(page)
    }

    fn stats(&self) -> AccessStats {
        let inner = self.inner.stats();
        let (injected_failures, injected_truncations, clipped_tuples) =
            self.state.with((), |state, ()| {
                (
                    state.injected_failures,
                    state.injected_truncations,
                    state.clipped_tuples,
                )
            });
        AccessStats {
            // Injected failures never reach the inner meter, but the
            // query *was* attempted against the (simulated) source.
            queries_issued: inner.queries_issued.saturating_add(injected_failures),
            tuples_returned: inner.tuples_returned.saturating_sub(clipped_tuples),
            failures: inner.failures.saturating_add(injected_failures),
            truncated_queries: inner.truncated_queries.saturating_add(injected_truncations),
            ..inner
        }
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        self.state.with((), |state, ()| {
            state.injected_failures = 0;
            state.injected_truncations = 0;
            state.clipped_tuples = 0;
        });
    }

    fn source_health(&self) -> Option<Vec<crate::SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryWebDb, Relation};
    use aimq_catalog::{Schema, Tuple, Value};

    fn base_db() -> InMemoryWebDb {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..20)
            .map(|i| {
                Tuple::new(
                    &schema,
                    vec![Value::cat("Toyota"), Value::num(1000.0 * f64::from(i))],
                )
                .unwrap()
            })
            .collect();
        InMemoryWebDb::new(Relation::from_tuples(schema, &tuples).unwrap())
    }

    fn outcomes(db: &dyn WebDatabase, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| match db.try_query(&SelectionQuery::all()) {
                Ok(page) => format!("ok({}, trunc={})", page.tuples.len(), page.truncated),
                Err(e) => format!("err({e:?})"),
            })
            .collect()
    }

    #[test]
    fn benign_profile_is_transparent() {
        let db = FaultInjectingWebDb::new(base_db(), FaultProfile::none(), 1);
        for o in outcomes(&db, 50) {
            assert_eq!(o, "ok(20, trunc=false)");
        }
        let s = db.stats();
        assert_eq!(s.failures, 0);
        assert_eq!(s.queries_issued, 50);
        assert_eq!(s.truncated_queries, 0);
    }

    #[test]
    fn same_seed_replays_identical_schedule() {
        let a = FaultInjectingWebDb::new(base_db(), FaultProfile::hostile(), 42);
        let b = FaultInjectingWebDb::new(base_db(), FaultProfile::hostile(), 42);
        assert_eq!(outcomes(&a, 200), outcomes(&b, 200));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjectingWebDb::new(base_db(), FaultProfile::flaky(), 1);
        let b = FaultInjectingWebDb::new(base_db(), FaultProfile::flaky(), 2);
        assert_ne!(outcomes(&a, 300), outcomes(&b, 300));
    }

    #[test]
    fn flaky_rate_is_roughly_ten_percent() {
        let db = FaultInjectingWebDb::new(base_db(), FaultProfile::flaky(), 7);
        let fails = outcomes(&db, 2000)
            .iter()
            .filter(|o| o.starts_with("err"))
            .count();
        assert!((100..300).contains(&fails), "flaky failure count {fails}");
        assert_eq!(db.stats().failures as usize, fails);
    }

    #[test]
    fn rate_limit_window_rejects_bursts() {
        let profile = FaultProfile {
            rate_limit: Some(RateLimitWindow {
                period: 5,
                burst: 2,
                retry_after: 3,
            }),
            ..FaultProfile::none()
        };
        let db = FaultInjectingWebDb::new(base_db(), profile, 1);
        let os = outcomes(&db, 14);
        // Positions 5,6 and 12,13 fall in the burst windows.
        for (i, o) in os.iter().enumerate() {
            let in_burst = i % 7 >= 5;
            assert_eq!(
                o.starts_with("err(RateLimited"),
                in_burst,
                "position {i}: {o}"
            );
        }
    }

    #[test]
    fn truncation_clips_and_adjusts_meter() {
        let profile = FaultProfile {
            truncation: Some(TruncationPolicy {
                probability: 1.0,
                max_tuples: 4,
            }),
            ..FaultProfile::none()
        };
        let db = FaultInjectingWebDb::new(base_db(), profile, 1);
        let page = db.try_query(&SelectionQuery::all()).unwrap();
        assert_eq!(page.tuples.len(), 4);
        assert!(page.truncated);
        let s = db.stats();
        assert_eq!(s.truncated_queries, 1);
        // The meter reports what the caller saw, not what the inner
        // relation produced.
        assert_eq!(s.tuples_returned, 4);
    }

    #[test]
    fn named_profiles_resolve() {
        assert!(FaultProfile::by_name("none").is_some_and(|p| p.is_benign()));
        assert_eq!(FaultProfile::by_name("flaky"), Some(FaultProfile::flaky()));
        assert_eq!(
            FaultProfile::by_name("hostile"),
            Some(FaultProfile::hostile())
        );
        assert_eq!(FaultProfile::by_name("bogus"), None);
    }

    #[test]
    fn keyed_mode_gives_each_query_an_order_independent_fate() {
        let queries: Vec<SelectionQuery> = (0..60)
            .map(|i| {
                SelectionQuery::new(vec![aimq_catalog::Predicate {
                    attr: aimq_catalog::AttrId(1),
                    op: aimq_catalog::PredicateOp::Ge,
                    value: Value::num(100.0 * f64::from(i)),
                }])
            })
            .collect();
        let fate =
            |db: &FaultInjectingWebDb<InMemoryWebDb>, q: &SelectionQuery| match db.try_query(q) {
                Ok(page) => format!("ok({}, trunc={})", page.tuples.len(), page.truncated),
                Err(e) => format!("err({e:?})"),
            };
        let profile = FaultProfile {
            transient_probability: 0.3,
            truncation: Some(TruncationPolicy {
                probability: 0.3,
                max_tuples: 2,
            }),
            ..FaultProfile::none()
        };
        let forward = FaultInjectingWebDb::keyed(base_db(), profile, 9);
        assert!(forward.is_keyed());
        let forward_fates: Vec<String> = queries.iter().map(|q| fate(&forward, q)).collect();
        // Same queries in reverse order, interleaved with repeats: every
        // query still meets exactly its own fate.
        let reverse = FaultInjectingWebDb::keyed(base_db(), profile, 9);
        for (q, expected) in queries.iter().zip(&forward_fates).rev() {
            assert_eq!(&fate(&reverse, q), expected);
            assert_eq!(&fate(&reverse, q), expected, "repeat redraws same fate");
        }
        // The keyed schedule actually injects something at 30%/30%.
        assert!(forward_fates.iter().any(|f| f.starts_with("err")));
        assert!(forward_fates.iter().any(|f| f.contains("trunc=true")));
        // A canonically equal but syntactically permuted query shares
        // the fate (fate keys on the canonical form).
        let dup = SelectionQuery::new(
            queries[3]
                .predicates()
                .iter()
                .chain(queries[3].predicates())
                .cloned()
                .collect(),
        );
        assert_eq!(fate(&reverse, &dup), forward_fates[3]);
        // Different seeds re-deal the fates.
        let reseeded = FaultInjectingWebDb::keyed(base_db(), profile, 10);
        let reseeded_fates: Vec<String> = queries.iter().map(|q| fate(&reseeded, q)).collect();
        assert_ne!(reseeded_fates, forward_fates);
    }

    #[test]
    fn keyed_mode_disables_rate_limit_windows() {
        // `hostile` carries an ordinal-based burst window; keyed mode
        // must never emit RateLimited (fates ignore call order).
        let db = FaultInjectingWebDb::keyed(base_db(), FaultProfile::hostile(), 42);
        for o in outcomes(&db, 200) {
            assert!(!o.starts_with("err(RateLimited"), "{o}");
        }
    }

    #[test]
    fn reset_clears_overlay_but_not_schedule() {
        let db = FaultInjectingWebDb::new(base_db(), FaultProfile::flaky(), 3);
        assert_eq!(outcomes(&db, 100).len(), 100);
        db.reset_stats();
        let s = db.stats();
        assert_eq!(s, AccessStats::default());
    }
}
