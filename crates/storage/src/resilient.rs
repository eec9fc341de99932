//! Client-side resilience policy for fallible autonomous sources.
//!
//! [`ResilientWebDb`] wraps any [`WebDatabase`] with bounded retry +
//! exponential backoff (deterministic jitter), a consecutive-failure
//! circuit breaker and a per-session probe budget. All waiting happens on
//! a [`VirtualClock`] — a monotone tick counter, never the wall clock —
//! so retry schedules are exactly replayable and tests need no sleeping.
//!
//! Time model: one *tick* is an abstract probe interval. Backoff advances
//! the clock by the wait it would impose; while the breaker is open, each
//! rejected probe advances the clock by one tick, so the breaker
//! half-opens after `breaker_cooldown` rejected probes (or earlier, if
//! backoff elsewhere moved the clock forward).

use std::sync::Arc;

use aimq_catalog::{Counter, Leaf, Plain, Schema, SelectionQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{AccessStats, QueryError, QueryPage, WebDatabase};

/// A monotone virtual clock counting abstract ticks.
///
/// Shared by reference; advancing is wait-free.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: Counter,
}

impl VirtualClock {
    /// A clock at tick zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.ticks.get()
    }

    /// Advance by `ticks`, saturating at `u64::MAX`.
    pub fn advance(&self, ticks: u64) {
        self.ticks.add(ticks);
    }
}

/// A tick counter: reading or advancing it never blocks.
impl Plain for VirtualClock {}

/// Retry, backoff, breaker and budget knobs of [`ResilientWebDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-issues of one failed query (0 = fail on first error).
    pub max_retries: u32,
    /// Backoff before the first retry, in ticks; doubles per attempt.
    pub base_backoff: u64,
    /// Ceiling on the exponential backoff, in ticks.
    pub max_backoff: u64,
    /// Maximum deterministic jitter added to each backoff, in ticks
    /// (drawn from the seeded policy RNG; 0 disables jitter).
    pub max_jitter: u64,
    /// Seed of the jitter stream (replayable runs fix this).
    pub jitter_seed: u64,
    /// Consecutive failed attempts that open the circuit breaker.
    pub breaker_threshold: u32,
    /// Ticks the breaker stays open before half-opening.
    pub breaker_cooldown: u64,
    /// Cap on total attempts against the source per session (`None` =
    /// unlimited). Exhaustion fails fast with
    /// [`QueryError::Unavailable`].
    pub probe_budget: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 1,
            max_backoff: 16,
            max_jitter: 1,
            jitter_seed: 0,
            breaker_threshold: 8,
            breaker_cooldown: 32,
            probe_budget: None,
        }
    }
}

/// Resilience outcome counters, separate from the raw access meter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Failed attempts that were re-issued.
    pub retries: u64,
    /// Closed → open breaker transitions.
    pub breaker_trips: u64,
    /// Half-open trial probes that succeeded and closed the breaker.
    pub breaker_recoveries: u64,
    /// Probes rejected without touching the source (open breaker or
    /// exhausted budget).
    pub fast_failures: u64,
    /// Total attempts issued against the inner source.
    pub attempts: u64,
}

#[derive(Debug)]
struct ResilientState {
    rng: StdRng,
    /// Failure streak. With `breaker_threshold == 0` it is never reset,
    /// so it must saturate.
    consecutive_failures: u32,
    /// `Some(tick)` while the breaker is open; half-opens at `tick`.
    open_until: Option<u64>,
    /// `true` between a half-open admission and the trial probe's verdict:
    /// the next success counts as a recovery, the next failure re-opens
    /// the breaker immediately with a fresh cooldown.
    half_open: bool,
    report: ResilienceReport,
}

/// Breaker, budget and jitter bookkeeping.
impl Plain for ResilientState {}
/// Retry knobs.
impl Plain for RetryPolicy {}

/// Whether [`ResilientState::admit`] lets the next attempt through.
enum Admission {
    /// Issue the attempt (it is already counted).
    Go,
    /// The breaker is open: fail fast and advance the clock one tick.
    BreakerOpen,
    /// The probe budget is spent: fail fast.
    OverBudget,
}

impl ResilientState {
    /// Admit the next attempt: fail fast while the breaker is open
    /// (half-opening it once the cooldown elapsed) or once the budget,
    /// which retries spend too, is gone; otherwise count the attempt.
    fn admit(&mut self, (policy, clock): (&RetryPolicy, &VirtualClock)) -> Admission {
        if let Some(until) = self.open_until {
            if clock.now() < until {
                self.report.fast_failures = self.report.fast_failures.saturating_add(1);
                return Admission::BreakerOpen;
            }
            self.open_until = None;
            self.consecutive_failures = 0;
            self.half_open = true;
        }
        if let Some(budget) = policy.probe_budget {
            if self.report.attempts >= budget {
                self.report.fast_failures = self.report.fast_failures.saturating_add(1);
                return Admission::OverBudget;
            }
        }
        self.report.attempts = self.report.attempts.saturating_add(1);
        Admission::Go
    }

    /// Record a successful attempt; a successful half-open trial closes
    /// the breaker as a recovery.
    fn note_success(&mut self, (): ()) {
        self.consecutive_failures = 0;
        if std::mem::take(&mut self.half_open) {
            self.report.breaker_recoveries = self.report.breaker_recoveries.saturating_add(1);
        }
    }

    /// Record failed attempt number `retries + 1` and decide what comes
    /// next: `Some(wait)` ticks of backoff before the next retry, or
    /// `None` to give up (a terminal error, retries exhausted, or an
    /// open breaker).
    fn retry_after(
        &mut self,
        (policy, clock, retries, error): (&RetryPolicy, &VirtualClock, u32, QueryError),
    ) -> Option<u64> {
        self.note_failure(policy, clock);
        let breaker_opened = self.open_until.is_some();
        if !error.is_retryable() || retries >= policy.max_retries || breaker_opened {
            return None;
        }
        self.report.retries = self.report.retries.saturating_add(1);
        Some(self.backoff(policy, retries.saturating_add(1), error))
    }

    /// Backoff + jitter before retry number `attempt` (1-based), honoring
    /// a rate-limit hint when present.
    fn backoff(&mut self, policy: &RetryPolicy, attempt: u32, error: QueryError) -> u64 {
        let base = if let QueryError::RateLimited { retry_after } = error {
            retry_after.max(1)
        } else {
            let exp = policy
                .base_backoff
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(62));
            exp.clamp(1, policy.max_backoff.max(1))
        };
        let jitter = if policy.max_jitter > 0 {
            self.rng.random_range(0..=policy.max_jitter)
        } else {
            0
        };
        base.saturating_add(jitter)
    }

    /// Record a failed attempt; trips the breaker at the threshold. A
    /// failed half-open trial re-opens the breaker immediately with a
    /// fresh cooldown — the source has not proven itself healthy, so it
    /// does not get `breaker_threshold` fresh failures of grace.
    fn note_failure(&mut self, policy: &RetryPolicy, clock: &VirtualClock) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if policy.breaker_threshold == 0 {
            return;
        }
        let failed_trial = std::mem::take(&mut self.half_open);
        if (failed_trial || self.consecutive_failures >= policy.breaker_threshold)
            && self.open_until.is_none()
        {
            self.open_until = Some(clock.now().saturating_add(policy.breaker_cooldown));
            self.report.breaker_trips = self.report.breaker_trips.saturating_add(1);
        }
    }
}

/// A [`WebDatabase`] decorator implementing the client half of the fault
/// model: retry with backoff and jitter over a [`VirtualClock`], a
/// consecutive-failure circuit breaker, and a per-session probe budget.
///
/// Cloning shares the inner database, the clock and all policy state.
#[derive(Debug, Clone)]
pub struct ResilientWebDb<D> {
    inner: D,
    policy: RetryPolicy,
    clock: Arc<VirtualClock>,
    state: Arc<Leaf<ResilientState>>,
}

impl<D: WebDatabase> ResilientWebDb<D> {
    /// Wrap `inner` under `policy` with a fresh clock at tick zero.
    pub fn new(inner: D, policy: RetryPolicy) -> Self {
        Self::with_clock(inner, policy, Arc::new(VirtualClock::new()))
    }

    /// Wrap `inner` sharing an existing clock (several wrappers can ride
    /// one session timeline).
    pub fn with_clock(inner: D, policy: RetryPolicy, clock: Arc<VirtualClock>) -> Self {
        ResilientWebDb {
            inner,
            policy,
            clock,
            state: Arc::new(Leaf::new(ResilientState {
                rng: StdRng::seed_from_u64(policy.jitter_seed),
                consecutive_failures: 0,
                open_until: None,
                half_open: false,
                report: ResilienceReport::default(),
            })),
        }
    }

    /// The session clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Borrow the wrapped database.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Snapshot of the resilience counters.
    pub fn report(&self) -> ResilienceReport {
        self.state.with((), |state, ()| state.report)
    }

    /// `true` while the breaker is open (cooldown not yet elapsed).
    pub fn breaker_open(&self) -> bool {
        self.state.with(&*self.clock, |state, clock| {
            state.open_until.is_some_and(|until| clock.now() < until)
        })
    }
}

impl<D: WebDatabase> WebDatabase for ResilientWebDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let mut retries: u32 = 0;
        loop {
            let admission = self
                .state
                .with((&self.policy, &*self.clock), ResilientState::admit);
            match admission {
                Admission::Go => {}
                // Each rejection advances virtual time one tick (see
                // module docs).
                Admission::BreakerOpen => {
                    self.clock.advance(1);
                    return Err(QueryError::Unavailable);
                }
                Admission::OverBudget => return Err(QueryError::Unavailable),
            }
            match self.inner.try_query(query) {
                Ok(page) => {
                    self.state.with((), ResilientState::note_success);
                    return Ok(page);
                }
                Err(error) => {
                    let input = (&self.policy, &*self.clock, retries, error);
                    let Some(wait) = self.state.with(input, ResilientState::retry_after) else {
                        return Err(error);
                    };
                    retries = retries.saturating_add(1);
                    self.clock.advance(wait);
                }
            }
        }
    }

    fn stats(&self) -> AccessStats {
        let inner = self.inner.stats();
        let report = self.report();
        AccessStats {
            retries: inner.retries.saturating_add(report.retries),
            failures: inner.failures.saturating_add(report.fast_failures),
            breaker_trips: inner.breaker_trips.saturating_add(report.breaker_trips),
            breaker_recoveries: inner
                .breaker_recoveries
                .saturating_add(report.breaker_recoveries),
            ..inner
        }
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        self.state
            .with((), |state, ()| state.report = ResilienceReport::default());
    }

    fn source_health(&self) -> Option<Vec<crate::SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjectingWebDb, FaultProfile, InMemoryWebDb, RateLimitWindow, Relation};
    use aimq_catalog::{Schema, Tuple, Value};

    fn base_db() -> InMemoryWebDb {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..6)
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

    fn flaky_db(seed: u64) -> FaultInjectingWebDb<InMemoryWebDb> {
        FaultInjectingWebDb::new(base_db(), FaultProfile::flaky(), seed)
    }

    #[test]
    fn retries_absorb_transient_failures() {
        let db = ResilientWebDb::new(flaky_db(42), RetryPolicy::default());
        let mut failures = 0usize;
        for _ in 0..300 {
            if db.try_query(&SelectionQuery::all()).is_err() {
                failures += 1;
            }
        }
        // P(4 consecutive 10% failures) = 1e-4; over 300 queries the
        // expected number of surfaced failures is ~0.03.
        assert_eq!(failures, 0, "retries should absorb a 10% flaky source");
        let r = db.report();
        assert!(r.retries > 0, "some retries must have happened");
        assert_eq!(db.stats().retries, r.retries);
    }

    #[test]
    fn backoff_advances_virtual_clock_only() {
        let db = ResilientWebDb::new(flaky_db(7), RetryPolicy::default());
        let failed = (0..200)
            .filter(|_| db.try_query(&SelectionQuery::all()).is_err())
            .count();
        let r = db.report();
        assert!(failed < 200);
        assert!(r.retries > 0);
        assert!(
            db.clock().now() >= r.retries,
            "each retry waits at least one tick"
        );
    }

    #[test]
    fn rate_limit_hint_drives_backoff() {
        let profile = FaultProfile {
            rate_limit: Some(RateLimitWindow {
                period: 1,
                burst: 1,
                retry_after: 10,
            }),
            ..FaultProfile::none()
        };
        let inner = FaultInjectingWebDb::new(base_db(), profile, 1);
        let policy = RetryPolicy {
            max_jitter: 0,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(inner, policy);
        // Query 0 succeeds; query 1 hits the burst, waits ≥ 10 ticks,
        // then the retry (ordinal 2) succeeds.
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        let before = db.clock().now();
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert!(db.clock().now() - before >= 10);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_half_opens() {
        let dead = FaultInjectingWebDb::new(
            base_db(),
            FaultProfile {
                transient_probability: 1.0,
                ..FaultProfile::none()
            },
            1,
        );
        let policy = RetryPolicy {
            max_retries: 10,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(dead, policy);
        // First query: 3 consecutive failures trip the breaker mid-retry.
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.breaker_open());
        assert_eq!(db.report().breaker_trips, 1);
        // While open: fast Unavailable without touching the source.
        let attempts_before = db.report().attempts;
        for _ in 0..4 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert_eq!(db.report().attempts, attempts_before);
        // Rejections advanced the clock past the cooldown: half-open
        // admits a trial again (which fails and re-trips eventually).
        assert!(!db.breaker_open());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.report().attempts > attempts_before);
    }

    #[test]
    fn breaker_recovers_when_source_heals() {
        // A 50% source with no retries trips a threshold-2 breaker over
        // and over; half-opening must keep admitting trials, so successes
        // keep flowing.
        let flaky = FaultInjectingWebDb::new(
            base_db(),
            FaultProfile {
                transient_probability: 0.5,
                ..FaultProfile::none()
            },
            9,
        );
        let policy = RetryPolicy {
            max_retries: 0,
            breaker_threshold: 2,
            breaker_cooldown: 2,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(flaky, policy);
        let mut successes = 0usize;
        for _ in 0..200 {
            if db.try_query(&SelectionQuery::all()).is_ok() {
                successes += 1;
            }
        }
        assert!(successes > 0, "breaker must keep half-opening");
        assert!(db.report().breaker_trips > 0);
    }

    /// An inner source that plays a fixed fail/succeed script, front
    /// first; once the script runs dry every probe succeeds. Gives the
    /// half-open tests fully deterministic fault timing.
    struct ScriptedDb {
        inner: InMemoryWebDb,
        script: Leaf<std::collections::VecDeque<bool>>,
    }

    impl ScriptedDb {
        fn failing_first(failures: &[bool]) -> Self {
            ScriptedDb {
                inner: base_db(),
                script: Leaf::new(failures.iter().copied().collect()),
            }
        }
    }

    impl WebDatabase for ScriptedDb {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
            let fail = self.script.with((), |s, ()| s.pop_front().unwrap_or(false));
            if fail {
                Err(QueryError::Transient)
            } else {
                self.inner.try_query(query)
            }
        }

        fn stats(&self) -> AccessStats {
            self.inner.stats()
        }

        fn reset_stats(&self) {
            self.inner.reset_stats();
        }
    }

    fn half_open_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            max_jitter: 0,
            breaker_threshold: 2,
            breaker_cooldown: 3,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn half_open_success_closes_breaker_and_counts_recovery() {
        // Two failures trip the threshold-2 breaker; the half-open trial
        // succeeds, which must close the breaker and count one recovery.
        let db = ResilientWebDb::new(ScriptedDb::failing_first(&[true, true]), half_open_policy());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.breaker_open());
        assert_eq!(db.report().breaker_trips, 1);
        // Three fast-fails walk the clock through the cooldown.
        for _ in 0..3 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert!(!db.breaker_open());
        // Half-open trial: succeeds, breaker closes, recovery counted.
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert!(!db.breaker_open());
        assert_eq!(db.report().breaker_recoveries, 1);
        assert_eq!(db.stats().breaker_recoveries, 1);
        // Steady state: subsequent probes flow without fast-fails.
        let fast_failures = db.report().fast_failures;
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert_eq!(db.report().fast_failures, fast_failures);
        // A recovery is not a second trip.
        assert_eq!(db.report().breaker_trips, 1);
    }

    #[test]
    fn half_open_failure_reopens_with_fresh_cooldown() {
        // Two failures trip the breaker; the half-open trial fails too,
        // which must re-open the breaker *immediately* (no threshold-2
        // grace) with a fresh cooldown, and count no recovery.
        let db = ResilientWebDb::new(
            ScriptedDb::failing_first(&[true, true, true]),
            half_open_policy(),
        );
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert_eq!(db.report().breaker_trips, 1);
        for _ in 0..3 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert!(!db.breaker_open());
        // Half-open trial fails: single failure re-trips the breaker.
        assert_eq!(
            db.try_query(&SelectionQuery::all()),
            Err(QueryError::Transient)
        );
        assert!(db.breaker_open(), "failed trial must re-open the breaker");
        assert_eq!(db.report().breaker_trips, 2);
        assert_eq!(db.report().breaker_recoveries, 0);
        // Fresh cooldown: three more rejections before the next trial,
        // which succeeds (script exhausted) and finally recovers.
        for _ in 0..3 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert_eq!(db.report().breaker_recoveries, 1);
        assert!(!db.breaker_open());
    }

    #[test]
    fn a_maximal_rate_limit_hint_saturates_the_wait() {
        // Every attempt meets a burst whose hint is the largest wait a
        // source can ask for; a jitter draw on top must not overflow.
        let profile = FaultProfile {
            rate_limit: Some(RateLimitWindow {
                period: 0,
                burst: 1,
                retry_after: u64::MAX,
            }),
            ..FaultProfile::none()
        };
        let inner = FaultInjectingWebDb::new(base_db(), profile, 1);
        let policy = RetryPolicy {
            max_retries: 1,
            max_jitter: 1_000_000,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(inner, policy);
        assert_eq!(
            db.try_query(&SelectionQuery::all()),
            Err(QueryError::RateLimited {
                retry_after: u64::MAX
            })
        );
        assert_eq!(db.report().retries, 1);
        assert_eq!(db.clock().now(), u64::MAX);
    }

    #[test]
    fn a_breaker_tripped_at_the_end_of_virtual_time_saturates_its_cooldown() {
        // With the clock saturated the cooldown cannot run on, so it has
        // elapsed at once: the next probe is the half-open trial.
        let db = ResilientWebDb::new(ScriptedDb::failing_first(&[true, true]), half_open_policy());
        db.clock().advance(u64::MAX);
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert_eq!(db.report().breaker_trips, 1);
        assert!(!db.breaker_open());
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert_eq!(db.report().breaker_recoveries, 1);
    }

    #[test]
    fn probe_budget_exhaustion_fails_fast() {
        let db = ResilientWebDb::new(
            base_db(),
            RetryPolicy {
                probe_budget: Some(3),
                ..RetryPolicy::default()
            },
        );
        for _ in 0..3 {
            assert!(db.try_query(&SelectionQuery::all()).is_ok());
        }
        assert_eq!(
            db.try_query(&SelectionQuery::all()),
            Err(QueryError::Unavailable)
        );
        // The inner source never saw the 4th query.
        assert_eq!(db.inner().stats().queries_issued, 3);
        assert_eq!(db.stats().failures, 1);
    }

    /// Budget conservation under concurrency: W threads race M probes
    /// each through one shared wrapper whose budget B is below W·M. Every
    /// admission decision is one `Leaf` section, so exactly B attempts
    /// get through, every other probe fails fast, and the inner source
    /// sees exactly the admitted attempts.
    #[test]
    fn probe_budget_is_conserved_under_concurrent_probes() {
        const W: u64 = 4;
        const M: u64 = 60;
        const B: u64 = 150;
        let db = ResilientWebDb::new(
            base_db(),
            RetryPolicy {
                probe_budget: Some(B),
                ..RetryPolicy::default()
            },
        );
        let served: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..W)
                .map(|_| {
                    scope.spawn(|| {
                        (0..M)
                            .filter(|_| db.try_query(&SelectionQuery::all()).is_ok())
                            .count() as u64
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let report = db.report();
        assert_eq!(report.attempts, B, "{report:?}");
        assert_eq!(report.attempts + report.fast_failures, W * M, "{report:?}");
        assert_eq!(served, B);
        assert_eq!(db.inner().stats().queries_issued, B);
    }

    /// Breaker conservation under concurrency: W threads race M probes
    /// each through one shared wrapper over a failing source. Every
    /// admission loop pass is one `Leaf` section that either counts an
    /// attempt or fails fast, and every pass after the first is a
    /// counted retry; the fault layer sees exactly the attempts; a
    /// recovery needs a trip before it; and the access meter reports
    /// the breaker's own trips.
    #[test]
    fn breaker_accounting_is_conserved_under_concurrent_probes() {
        const W: u64 = 4;
        const M: u64 = 100;
        for (p, threshold) in [(1.0, 8), (0.5, 3), (0.9, 2)] {
            let failing = FaultInjectingWebDb::new(
                base_db(),
                FaultProfile {
                    transient_probability: p,
                    ..FaultProfile::none()
                },
                11,
            );
            let db = ResilientWebDb::new(
                failing,
                RetryPolicy {
                    breaker_threshold: threshold,
                    breaker_cooldown: 4,
                    ..RetryPolicy::default()
                },
            );
            let served: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..W)
                    .map(|_| {
                        scope.spawn(|| {
                            (0..M)
                                .filter(|_| db.try_query(&SelectionQuery::all()).is_ok())
                                .count() as u64
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            let report = db.report();
            let case = format!("p={p} threshold={threshold}: {report:?}");
            assert!(served <= report.attempts, "{case}");
            assert_eq!(
                report.attempts + report.fast_failures,
                W * M + report.retries,
                "{case}"
            );
            assert_eq!(db.inner().stats().queries_issued, report.attempts, "{case}");
            assert!(report.breaker_trips > 0, "{case}");
            assert!(report.breaker_recoveries <= report.breaker_trips, "{case}");
            assert_eq!(db.stats().breaker_trips, report.breaker_trips, "{case}");
        }
    }

    #[test]
    fn same_seeds_replay_identical_sessions() {
        let run = || {
            let db = ResilientWebDb::new(
                FaultInjectingWebDb::new(base_db(), FaultProfile::hostile(), 42),
                RetryPolicy {
                    jitter_seed: 5,
                    ..RetryPolicy::default()
                },
            );
            let mut log = Vec::new();
            for _ in 0..150 {
                log.push(format!("{:?}", db.try_query(&SelectionQuery::all())));
            }
            log.push(format!("{:?} clock={}", db.report(), db.clock().now()));
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unavailable_is_not_retried() {
        let dead = FaultInjectingWebDb::new(
            base_db(),
            FaultProfile {
                unavailable_probability: 1.0,
                ..FaultProfile::none()
            },
            1,
        );
        let db = ResilientWebDb::new(dead, RetryPolicy::default());
        assert_eq!(
            db.try_query(&SelectionQuery::all()),
            Err(QueryError::Unavailable)
        );
        assert_eq!(db.report().retries, 0);
        assert_eq!(db.report().attempts, 1);
    }
}
