//! Per-query deadlines over virtual time.
//!
//! Real deadlines (wall-clock timers) would make serving behavior
//! depend on machine load and scheduling — the same query could
//! complete on one run and miss on the next. Instead each in-flight
//! query gets its own [`DeadlineWebDb`]: a decorator holding a private
//! [`VirtualClock`] that charges a fixed number of ticks per probe.
//! When the accumulated cost reaches the deadline, further probes fail
//! with the *terminal* [`QueryError::Unavailable`], which the engine
//! already knows how to degrade on — it abandons remaining work and
//! returns a partial answer with a populated `DegradationReport`.
//!
//! Because the clock is per-query and every probe costs the same
//! whether it is served from cache, source, or fails, deadline behavior
//! is a pure function of the query's own probe count: independent of
//! worker interleaving, machine speed, and concurrency level. The same
//! query with the same budget misses (or not) identically at 1 worker
//! and at 64.

use aimq_catalog::{Flag, Schema, SelectionQuery};
use aimq_storage::{AccessStats, QueryError, QueryPage, VirtualClock, WebDatabase};

/// Decorator enforcing a probe-tick budget on one query's probes.
pub struct DeadlineWebDb<'a> {
    inner: &'a dyn WebDatabase,
    clock: VirtualClock,
    /// Total tick budget; 0 disables the deadline.
    deadline_ticks: u64,
    /// Cost charged per probe, cache hit or not.
    ticks_per_probe: u64,
    /// Raised on the first refusal.
    missed: Flag,
}

impl<'a> DeadlineWebDb<'a> {
    /// Wrap `inner` with a budget of `deadline_ticks`, charging
    /// `ticks_per_probe` per probe. `deadline_ticks == 0` disables the
    /// deadline (probes are still metered on the clock).
    pub fn new(inner: &'a dyn WebDatabase, deadline_ticks: u64, ticks_per_probe: u64) -> Self {
        DeadlineWebDb {
            inner,
            clock: VirtualClock::new(),
            deadline_ticks,
            ticks_per_probe: ticks_per_probe.max(1),
            missed: Flag::new(),
        }
    }

    /// Virtual ticks consumed so far (the query's probe cost).
    pub fn elapsed_ticks(&self) -> u64 {
        self.clock.now()
    }

    /// `true` once any probe was refused for exceeding the deadline.
    pub fn deadline_missed(&self) -> bool {
        self.missed.is_set()
    }
}

impl WebDatabase for DeadlineWebDb<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        if self.deadline_ticks > 0 && self.clock.now() >= self.deadline_ticks {
            // Terminal by design: the engine treats `Unavailable` as
            // "stop probing, degrade gracefully", which is exactly the
            // deadline semantics — salvage what is already ranked.
            self.missed.set();
            return Err(QueryError::Unavailable);
        }
        self.clock.advance(self.ticks_per_probe);
        self.inner.try_query(query)
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn source_health(&self) -> Option<Vec<aimq_storage::SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::{AttrId, Predicate, Tuple, Value};
    use aimq_storage::{InMemoryWebDb, Relation};

    fn db() -> InMemoryWebDb {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples = [("Toyota", 10_000.0), ("Honda", 9_000.0)]
            .iter()
            .map(|&(m, p)| Tuple::new(&schema, vec![Value::cat(m), Value::num(p)]).unwrap())
            .collect::<Vec<_>>();
        InMemoryWebDb::new(Relation::from_tuples(schema, &tuples).unwrap())
    }

    fn probe() -> SelectionQuery {
        SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))])
    }

    #[test]
    fn probes_succeed_until_the_budget_is_spent() {
        let inner = db();
        let ddb = DeadlineWebDb::new(&inner, 30, 10);
        for _ in 0..3 {
            assert!(ddb.try_query(&probe()).is_ok());
        }
        assert!(!ddb.deadline_missed());
        assert_eq!(ddb.elapsed_ticks(), 30);
        // Fourth probe would start at tick 30 == deadline: refused.
        assert_eq!(ddb.try_query(&probe()), Err(QueryError::Unavailable));
        assert!(ddb.deadline_missed());
        // The refusal never reached the source.
        assert_eq!(inner.stats().queries_issued, 3);
    }

    #[test]
    fn zero_deadline_disables_enforcement_but_still_meters() {
        let inner = db();
        let ddb = DeadlineWebDb::new(&inner, 0, 7);
        for _ in 0..100 {
            assert!(ddb.try_query(&probe()).is_ok());
        }
        assert!(!ddb.deadline_missed());
        assert_eq!(ddb.elapsed_ticks(), 700);
    }

    #[test]
    fn probe_cost_is_charged_identically_for_misses() {
        // A probe that matches nothing costs the same ticks as one that
        // returns tuples: deadline behavior must depend on probe count
        // only, never on result contents.
        let inner = db();
        let ddb = DeadlineWebDb::new(&inner, 0, 5);
        let empty = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("DeLorean"))]);
        ddb.try_query(&probe()).unwrap();
        ddb.try_query(&empty).unwrap();
        assert_eq!(ddb.elapsed_ticks(), 10);
    }
}
