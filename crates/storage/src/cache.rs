use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use aimq_catalog::{Leaf, Plain, Schema, SelectionQuery};

use crate::web::{AccessStats, QueryError, QueryPage, WebDatabase};

/// Default number of memoized pages ([`CachedWebDb::new`] callers that have
/// no better number; the CLI default).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default stripe count for [`CachedWebDb::new`]: one stripe, i.e. the
/// exact single-lock semantics the decorator shipped with. The serving
/// runtime raises this via [`CachedWebDb::with_stripes`] so its worker
/// pool does not serialize on one memo lock.
pub const DEFAULT_CACHE_STRIPES: usize = 1;

/// Everything one cache stripe protects under its lock: a shard of the
/// memo, that shard's FIFO admission order, and its hit/miss/eviction
/// counters (so a stats overlay is internally consistent per stripe).
#[derive(Debug, Default)]
struct CacheState {
    /// Memoized pages, keyed on the *canonical* query form. `BTreeMap`
    /// keeps every walk of the cache deterministic (clippy's
    /// `disallowed_types` bans the randomized `HashMap` in this
    /// codebase's deterministic layers).
    pages: BTreeMap<SelectionQuery, QueryPage>,
    /// Insertion order of the keys in `pages`; the front is next to be
    /// evicted. FIFO rather than LRU: eviction order then depends only on
    /// the sequence of *misses*, never on hit timing, which keeps replayed
    /// runs byte-identical even if an observer probes the cache.
    order: VecDeque<SelectionQuery>,
    // Monotone event tallies, summed across stripes by `stats`.
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Owned pages, keys and tallies.
impl Plain for CacheState {}

impl CacheState {
    /// Look `key` up and count the outcome (see [`CachedWebDb::lookup`]).
    fn lookup(&mut self, (key, misses_queued): (&SelectionQuery, bool)) -> Lookup {
        let Some(page) = self.pages.get(key) else {
            self.misses = self.misses.saturating_add(1);
            return Lookup::Miss;
        };
        if misses_queued {
            return Lookup::Evictable;
        }
        let page = page.clone();
        self.hits = self.hits.saturating_add(1);
        Lookup::Hit(page)
    }

    /// Memoize `page` under `key` unless a racing miss already did
    /// (first insertion wins, so `order` never holds a duplicate key),
    /// then evict FIFO down to `capacity`.
    fn admit(&mut self, (key, page, capacity): (&SelectionQuery, &QueryPage, usize)) {
        if self.pages.contains_key(key) {
            return;
        }
        self.order.push_back(key.clone());
        self.pages.insert(key.clone(), page.clone());
        while self.pages.len() > capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.pages.remove(&oldest);
                    self.evictions = self.evictions.saturating_add(1);
                }
                None => break,
            }
        }
    }
}

/// The cache key of `query`: its canonical form, borrowed when the query
/// already is canonical — the engine's probe plan stores canonical
/// probes, so the common path neither sorts nor clones here.
fn canonical_key(query: &SelectionQuery) -> Cow<'_, SelectionQuery> {
    if query.is_canonical() {
        Cow::Borrowed(query)
    } else {
        Cow::Owned(query.canonicalize())
    }
}

/// Outcome of one memo lookup (see [`CachedWebDb::lookup`]).
enum Lookup {
    Hit(QueryPage),
    Miss,
    /// Present, but queued admissions could evict it; not counted.
    Evictable,
}

/// One counted plan miss waiting for its sub-plan to be forwarded.
struct Miss<'q> {
    stripe: usize,
    key: Cow<'q, SelectionQuery>,
    query: &'q SelectionQuery,
}

/// A memoizing decorator for any [`WebDatabase`]: repeated semantically
/// identical probes are answered from memory instead of re-querying the
/// autonomous source.
///
/// Algorithm 1 re-issues many byte-identical relaxation queries — base-set
/// tuples that agree on their non-relaxed attributes produce the *same*
/// `SelectionQuery`, and overlapping workload queries repeat probes across
/// engine calls. Each repeat costs a round trip, a
/// [`AccessStats::queries_issued`] tick, and (behind a
/// [`crate::ResilientWebDb`]) a probe-budget charge. This decorator
/// eliminates the repeats at the source boundary.
///
/// Semantics:
///
/// - Keys are [`SelectionQuery::canonicalize`]d, so predicate order and
///   duplicate conjuncts do not defeat the cache.
/// - Only *successful, complete* pages are memoized. Errors always
///   propagate and are retried on the next probe (negative caching would
///   turn a transient fault into a permanent one), and truncated pages are
///   forwarded but not stored (a clipped page is not the query's answer;
///   replaying it would freeze one page-limit draw into the session).
/// - The memo is bounded: at most `capacity` pages, evicted FIFO. A
///   `capacity` of zero stores nothing (every probe forwards), which is how
///   `--no-cache` is implemented without changing the decorator stack.
/// - Cache hits never touch the inner database: no probe budget is
///   charged, no circuit breaker state advances, no fault-schedule ordinal
///   is consumed, and [`AccessStats::queries_issued`] does not move. The
///   supported composition is therefore cache *outermost*:
///   `CachedWebDb<ResilientWebDb<FaultInjectingWebDb<_>>>`. Stacking the
///   cache inside the resilience layer would charge budget for hits
///   (`ResilientWebDb` meters before delegating) — see the stacking-order
///   test below and DESIGN.md, "Probe caching & dedup semantics".
///
/// [`WebDatabase::stats`] overlays [`AccessStats::cache_hits`] /
/// [`AccessStats::cache_misses`] / [`AccessStats::cache_evictions`] on the
/// inner meter; [`WebDatabase::reset_stats`] clears the counters but keeps
/// the memo (use [`CachedWebDb::clear`] to drop memoized pages).
///
/// The memo is *lock-striped*: keys are sharded over `stripes`
/// independent locks by [`SelectionQuery::stable_hash`] (a deterministic
/// FNV over the canonical form — `std`'s per-process-seeded `RandomState`
/// would make shard assignment unreproducible), so concurrent workers
/// probing different queries rarely contend. [`CachedWebDb::new`] keeps
/// the historical single-stripe behaviour; the serving runtime uses
/// [`CachedWebDb::with_stripes`]. With `s` stripes the capacity bound is
/// enforced per stripe at `ceil(capacity / s)` pages, so the total held
/// never exceeds `capacity + s - 1`.
///
/// Cloning shares the memo and the counters.
#[derive(Debug, Clone)]
pub struct CachedWebDb<D> {
    inner: D,
    capacity: usize,
    /// Capacity bound each stripe enforces locally.
    stripe_capacity: usize,
    /// At least one stripe, always.
    stripes: Arc<Vec<Leaf<CacheState>>>,
}

impl<D: WebDatabase> CachedWebDb<D> {
    /// Wrap `inner` with a memo of at most `capacity` pages behind a
    /// single lock (see [`DEFAULT_CACHE_STRIPES`]).
    pub fn new(inner: D, capacity: usize) -> Self {
        Self::with_stripes(inner, capacity, DEFAULT_CACHE_STRIPES)
    }

    /// Wrap `inner` with the default capacity
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn with_default_capacity(inner: D) -> Self {
        Self::new(inner, DEFAULT_CACHE_CAPACITY)
    }

    /// Wrap `inner` with `capacity` total pages sharded over `stripes`
    /// locks (`stripes` is clamped to at least one).
    pub fn with_stripes(inner: D, capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let stripe_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(stripes)
        };
        CachedWebDb {
            inner,
            capacity,
            stripe_capacity,
            stripes: Arc::new(
                (0..stripes)
                    .map(|_| Leaf::new(CacheState::default()))
                    .collect(),
            ),
        }
    }

    /// The wrapped database.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The capacity bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes sharding the memo.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Index of the stripe responsible for a canonical `key`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the divisor is at least 1, and the remainder is below the stripe count"
    )]
    fn stripe_index(&self, key: &SelectionQuery) -> usize {
        let n = self.stripes.len() as u64;
        (key.stable_hash() % n.max(1)) as usize
    }

    /// Look the canonical `key` up in stripe `stripe` and count the
    /// outcome. While a plan's misses are queued (`misses_queued`), a
    /// present key could be evicted by their admission before the
    /// sequential loop reaches it, so it is reported
    /// [`Lookup::Evictable`] and nothing is counted. A missing stripe
    /// (construction forbids it) reads as an uncounted miss, i.e. the
    /// cache is disabled rather than panicking.
    fn lookup(&self, stripe: usize, key: &SelectionQuery, misses_queued: bool) -> Lookup {
        match self.stripes.get(stripe) {
            Some(stripe) => stripe.with((key, misses_queued), CacheState::lookup),
            None => Lookup::Miss,
        }
    }

    /// Take back a miss counted for a plan entry that the sequential
    /// loop would never have reached.
    fn uncount(&self, stripe: usize) {
        if let Some(stripe) = self.stripes.get(stripe) {
            stripe.with((), |state, ()| {
                state.misses = state.misses.saturating_sub(1);
            });
        }
    }

    /// Memoize a page the inner database returned for `key` — the one
    /// admission routine of both probe paths. Truncated pages are not
    /// stored; the stripe evicts FIFO down to its capacity.
    fn admit(&self, stripe: usize, key: &SelectionQuery, page: &QueryPage) {
        if page.truncated || self.stripe_capacity == 0 {
            return;
        }
        if let Some(stripe) = self.stripes.get(stripe) {
            stripe.with((key, page, self.stripe_capacity), CacheState::admit);
        }
    }

    /// Walk `plan`, answering hits into `out` and counting and queueing
    /// misses, until an entry whose outcome the queued misses' admission
    /// could change: (a) a key already queued, or (b) any hit once a
    /// miss is queued. Hits therefore only precede the queued misses.
    /// Returns the number of entries consumed (at least one of a
    /// non-empty plan) and the queued misses.
    fn segment<'q>(
        &self,
        plan: &'q [SelectionQuery],
        out: &mut Vec<Result<QueryPage, QueryError>>,
    ) -> (usize, Vec<Miss<'q>>) {
        let mut misses: Vec<Miss<'q>> = Vec::new();
        let mut consumed = 0usize;
        for query in plan {
            let key = canonical_key(query);
            if misses.iter().any(|m| m.key == key) {
                break;
            }
            let stripe = self.stripe_index(&key);
            match self.lookup(stripe, &key, !misses.is_empty()) {
                Lookup::Hit(page) => out.push(Ok(page)),
                Lookup::Miss => misses.push(Miss { stripe, key, query }),
                Lookup::Evictable => break,
            }
            consumed = consumed.saturating_add(1);
        }
        (consumed, misses)
    }

    /// Pair each queued miss with its inner result in plan order,
    /// admitting successful pages. Returns `false` once the plan must
    /// stop (a terminal error, or an inner plan that answered fewer
    /// entries than it was given); the misses counted after that point
    /// are taken back.
    fn emit(
        &self,
        misses: Vec<Miss<'_>>,
        results: Vec<Result<QueryPage, QueryError>>,
        out: &mut Vec<Result<QueryPage, QueryError>>,
    ) -> bool {
        let mut results = results.into_iter();
        let mut stopped = false;
        for miss in misses {
            match results.next() {
                Some(result) if !stopped => {
                    if let Ok(page) = &result {
                        self.admit(miss.stripe, &miss.key, page);
                    }
                    stopped = matches!(result, Err(e) if !e.is_retryable());
                    out.push(result);
                }
                _ => {
                    self.uncount(miss.stripe);
                    stopped = true;
                }
            }
        }
        !stopped
    }

    /// Number of pages currently memoized, summed over stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| stripe.with((), |state, ()| state.pages.len()))
            .sum()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every memoized page (counters are untouched; eviction is not
    /// counted — nothing was displaced by an admission).
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            stripe.with((), |state, ()| {
                state.pages.clear();
                state.order.clear();
            });
        }
    }
}

impl<D: WebDatabase> WebDatabase for CachedWebDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let key = canonical_key(query);
        let stripe = self.stripe_index(&key);
        if let Lookup::Hit(page) = self.lookup(stripe, &key, false) {
            return Ok(page);
        }
        // Forward without holding the lock: the inner stack may spend
        // virtual time retrying/backing off, and concurrent probes for
        // *other* queries must not serialize behind it.
        let page = self.inner.try_query(query)?;
        self.admit(stripe, &key, &page);
        Ok(page)
    }

    /// Plan path with the sequential loop's traffic, pages and meters.
    /// Hits are answered in place; misses are counted, then forwarded in
    /// plan order as one inner sub-plan, so a terminal source shares
    /// their evaluation. A sub-plan closes before an entry whose outcome
    /// its admissions could change: (a) a key it already queues as a
    /// miss, and (b) any hit (the loop might evict it first). Like the
    /// loop, the plan stops after a terminal error; misses counted for
    /// entries past it are taken back. Under `Cached(Resilient(..))` the
    /// sub-plan runs the inner decorator's sequential default, so its
    /// traffic is unchanged.
    fn try_query_plan(&self, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
        let mut out = Vec::with_capacity(plan.len());
        let mut rest = plan;
        while !rest.is_empty() {
            let (consumed, misses) = self.segment(rest, &mut out);
            rest = rest.get(consumed..).unwrap_or_default();
            if misses.is_empty() {
                continue;
            }
            let sub_plan: Vec<SelectionQuery> = misses.iter().map(|m| m.query.clone()).collect();
            let results = self.inner.try_query_plan(&sub_plan);
            if !self.emit(misses, results, &mut out) {
                break;
            }
        }
        out
    }

    fn stats(&self) -> AccessStats {
        // Read the inner meter first: every source issue was preceded by
        // a counted miss, so summing stripe counters afterwards keeps the
        // `queries_issued <= cache_misses` invariant in every snapshot.
        let inner = self.inner.stats();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for stripe in self.stripes.iter() {
            let (h, m, e) =
                stripe.with((), |state, ()| (state.hits, state.misses, state.evictions));
            hits = hits.saturating_add(h);
            misses = misses.saturating_add(m);
            evictions = evictions.saturating_add(e);
        }
        AccessStats {
            cache_hits: inner.cache_hits.saturating_add(hits),
            cache_misses: inner.cache_misses.saturating_add(misses),
            cache_evictions: inner.cache_evictions.saturating_add(evictions),
            ..inner
        }
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        for stripe in self.stripes.iter() {
            stripe.with((), |state, ()| {
                state.hits = 0;
                state.misses = 0;
                state.evictions = 0;
            });
        }
    }

    fn source_health(&self) -> Option<Vec<crate::SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FaultInjectingWebDb, FaultProfile, InMemoryWebDb, Relation, ResilientWebDb, RetryPolicy,
    };
    use aimq_catalog::{AttrId, Predicate, Schema, Tuple, Value};

    fn relation() -> Relation {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = [("Toyota", 10000.0), ("Honda", 9000.0), ("Toyota", 7000.0)]
            .iter()
            .map(|&(m, p)| Tuple::new(&schema, vec![Value::cat(m), Value::num(p)]).unwrap())
            .collect();
        Relation::from_tuples(schema, &tuples).unwrap()
    }

    fn make_eq(make: &str) -> Predicate {
        Predicate::eq(AttrId(0), Value::cat(make))
    }

    fn price_ge(p: f64) -> Predicate {
        Predicate {
            attr: AttrId(1),
            op: aimq_catalog::PredicateOp::Ge,
            value: Value::num(p),
        }
    }

    #[test]
    fn repeat_probe_is_served_from_memory() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        let first = db.try_query(&q).unwrap();
        let second = db.try_query(&q).unwrap();
        assert_eq!(first, second);
        let s = db.stats();
        assert_eq!(s.queries_issued, 1, "the source saw the probe once");
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(db.inner().stats().queries_issued, 1);
    }

    #[test]
    fn keying_is_canonical_not_syntactic() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let a = SelectionQuery::new(vec![make_eq("Toyota"), price_ge(8000.0)]);
        let b = SelectionQuery::new(vec![price_ge(8000.0), make_eq("Toyota"), make_eq("Toyota")]);
        let pa = db.try_query(&a).unwrap();
        let pb = db.try_query(&b).unwrap();
        assert_eq!(pa, pb);
        assert_eq!(db.stats().cache_hits, 1, "permuted conjuncts must hit");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 2);
        let qs: Vec<SelectionQuery> = [6500.0, 8500.0, 9500.0]
            .iter()
            .map(|&p| SelectionQuery::new(vec![price_ge(p)]))
            .collect();
        for q in &qs {
            db.try_query(q).unwrap();
        }
        assert_eq!(db.len(), 2);
        assert_eq!(db.stats().cache_evictions, 1);
        // FIFO: the first-admitted key is gone, the later two still hit.
        db.try_query(&qs[1]).unwrap();
        db.try_query(&qs[2]).unwrap();
        assert_eq!(db.stats().cache_hits, 2);
        db.try_query(&qs[0]).unwrap();
        assert_eq!(db.stats().cache_hits, 2, "evicted key must miss");
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 0);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        db.try_query(&q).unwrap();
        db.try_query(&q).unwrap();
        let s = db.stats();
        assert_eq!(s.queries_issued, 2);
        assert_eq!((s.cache_hits, s.cache_misses, s.cache_evictions), (0, 2, 0));
        assert!(db.is_empty());
    }

    #[test]
    fn truncated_pages_are_forwarded_but_not_memoized() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()).with_result_limit(1), 16);
        let all = SelectionQuery::all();
        let page = db.try_query(&all).unwrap();
        assert!(page.truncated);
        db.try_query(&all).unwrap();
        let s = db.stats();
        assert_eq!(s.cache_hits, 0, "clipped pages must not be replayed");
        assert_eq!(s.queries_issued, 2);
        // A complete page for a different query still caches.
        let q = SelectionQuery::new(vec![make_eq("Honda")]);
        db.try_query(&q).unwrap();
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        // A dead source: every probe must reach it (and fail) — the cache
        // never memoizes a failure as if it were an answer.
        let dead = FaultProfile {
            unavailable_probability: 1.0,
            ..FaultProfile::none()
        };
        let db = CachedWebDb::new(
            FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), dead, 7),
            16,
        );
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        assert_eq!(db.try_query(&q), Err(QueryError::Unavailable));
        assert_eq!(db.try_query(&q), Err(QueryError::Unavailable));
        let s = db.stats();
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.failures, 2);
        assert!(db.is_empty());
    }

    #[test]
    fn reset_stats_keeps_the_memo_and_clear_drops_it() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        db.try_query(&q).unwrap();
        db.reset_stats();
        assert_eq!(db.stats(), AccessStats::default());
        assert_eq!(db.len(), 1, "reset_stats must not flush pages");
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1);
        db.clear();
        assert!(db.is_empty());
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1, "cleared page misses again");
    }

    /// Satellite: the supported stacking order. Cache *outside* the
    /// resilience layer means hits consume no probe budget; cache *inside*
    /// it means every hit is still charged. The probe budget below admits
    /// exactly two attempts, so the supported order answers three probes
    /// (one miss + two hits) while the unsupported order fast-fails.
    #[test]
    fn stacking_order_cache_outside_resilience_spares_the_budget() {
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        let policy = RetryPolicy {
            probe_budget: Some(2),
            ..RetryPolicy::default()
        };

        // Supported: Cached(Resilient(Fault(db))).
        let supported = CachedWebDb::new(
            ResilientWebDb::new(
                FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), FaultProfile::none(), 1),
                policy,
            ),
            16,
        );
        for _ in 0..3 {
            assert!(supported.try_query(&q).is_ok(), "hits are budget-free");
        }
        assert_eq!(supported.stats().cache_hits, 2);

        // Unsupported: Resilient(Cached(Fault(db))) — the budget meter
        // sits above the cache, so even hits are charged and the third
        // probe dies on an exhausted budget.
        let unsupported = ResilientWebDb::new(
            CachedWebDb::new(
                FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), FaultProfile::none(), 1),
                16,
            ),
            policy,
        );
        assert!(unsupported.try_query(&q).is_ok());
        assert!(unsupported.try_query(&q).is_ok());
        assert_eq!(
            unsupported.try_query(&q),
            Err(QueryError::Unavailable),
            "inner cache cannot protect the probe budget"
        );
    }

    /// Satellite: cache hits must not advance the deterministic fault
    /// schedule. With the cache outermost, a workload with repeats sees
    /// exactly the fate sequence of its deduplicated probe sequence.
    #[test]
    fn hits_do_not_consume_fault_schedule_ordinals() {
        let profile = FaultProfile::flaky();
        let seed = 42;
        let queries: Vec<SelectionQuery> = [6500.0, 8500.0, 9500.0, 10500.0]
            .iter()
            .map(|&p| SelectionQuery::new(vec![price_ge(p)]))
            .collect();

        // Reference: the distinct queries, each issued once, bare.
        let bare = FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), profile, seed);
        let reference: Vec<Result<QueryPage, QueryError>> =
            queries.iter().map(|q| bare.try_query(q)).collect();

        // Cached run: each query issued twice; the repeats hit the memo
        // (successful complete pages) or re-probe (failures), but the
        // *first* outcomes replay the reference schedule positions only
        // when hits consume no ordinals.
        let cached = CachedWebDb::new(
            FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), profile, seed),
            16,
        );
        let mut outcomes = Vec::new();
        for q in &queries {
            let first = cached.try_query(q);
            if first.is_ok() {
                assert_eq!(cached.try_query(q), first, "repeat must replay the page");
            }
            outcomes.push(first);
        }
        // flaky(seed=42) over four probes is fault-free here, so every
        // repeat was a hit and the fate sequences line up exactly.
        assert_eq!(outcomes, reference);
        assert_eq!(cached.stats().cache_hits, 4);
    }

    #[test]
    fn concurrent_misses_keep_the_meter_coherent() {
        // Distinct queries from several threads: every probe is a miss,
        // and a miss is counted before the source issue, so any stats
        // snapshot (inner meter read first) obeys
        // `queries_issued <= cache_misses`.
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 1024);
        let mut handles = Vec::new();
        for worker_id in 0..4u32 {
            let worker = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    let p = f64::from(worker_id * 1000 + i) / 10.0;
                    worker
                        .try_query(&SelectionQuery::new(vec![price_ge(p)]))
                        .unwrap();
                }
            }));
        }
        let reader = db.clone();
        let checker = std::thread::spawn(move || {
            for _ in 0..200 {
                let s = reader.stats();
                assert!(
                    s.queries_issued <= s.cache_misses,
                    "issue without a counted miss: {s:?}"
                );
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        checker.join().unwrap();
        let s = db.stats();
        assert_eq!(s.cache_misses, 1000);
        assert_eq!(s.queries_issued, 1000);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn concurrent_plans_keep_the_cache_accounting_identity() {
        // Overlapping plans from several threads through a small striped
        // cache: hits, misses, sub-plan splits and evictions interleave.
        // Misses are counted before their sub-plan is forwarded, so every
        // snapshot obeys `queries_issued <= cache_misses`; at the end
        // every answered plan entry is exactly one hit or one miss.
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), 16, 8);
        let queries: Vec<SelectionQuery> = (0..24)
            .map(|i| SelectionQuery::new(vec![price_ge(f64::from(i) * 500.0)]))
            .collect();
        let workers = 4;
        let start = std::sync::Barrier::new(workers + 1);
        let answered: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (db, queries, start) = (&db, &queries, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut answered = 0;
                        for round in 0..40 {
                            let from = (w * 5 + round * 3) % queries.len();
                            let plan: Vec<SelectionQuery> =
                                queries.iter().cycle().skip(from).take(9).cloned().collect();
                            answered += db.try_query_plan(&plan).len();
                        }
                        answered
                    })
                })
                .collect();
            start.wait();
            for _ in 0..500 {
                let s = db.stats();
                assert!(
                    s.queries_issued <= s.cache_misses,
                    "issue without a counted miss: {s:?}"
                );
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(answered, workers * 40 * 9);
        let s = db.stats();
        assert_eq!((s.cache_hits + s.cache_misses) as usize, answered);
        assert_eq!(s.queries_issued, s.cache_misses);
        assert!(s.cache_hits > 0 && s.cache_evictions > 0, "{s:?}");
    }

    #[test]
    fn default_constructor_keeps_single_stripe_semantics() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        assert_eq!(db.stripes(), DEFAULT_CACHE_STRIPES);
        assert_eq!(db.stripes(), 1);
    }

    #[test]
    fn striped_cache_keys_canonically_and_replays_pages() {
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), 64, 8);
        assert_eq!(db.stripes(), 8);
        let a = SelectionQuery::new(vec![make_eq("Toyota"), price_ge(8000.0)]);
        let b = SelectionQuery::new(vec![price_ge(8000.0), make_eq("Toyota"), make_eq("Toyota")]);
        let pa = db.try_query(&a).unwrap();
        let pb = db.try_query(&b).unwrap();
        assert_eq!(pa, pb);
        assert_eq!(db.stats().cache_hits, 1, "stripe choice must be canonical");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn striped_concurrent_replay_hits_across_threads() {
        // Fill from one thread, then replay the same workload from many:
        // every stripe must serve its keys to every worker.
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), 1024, 8);
        let queries: Vec<SelectionQuery> = (0..40)
            .map(|i| SelectionQuery::new(vec![price_ge(f64::from(i) * 250.0)]))
            .collect();
        for q in &queries {
            db.try_query(q).unwrap();
        }
        let issued_after_fill = db.stats().queries_issued;
        assert_eq!(issued_after_fill, 40);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let worker = db.clone();
            let queries = queries.clone();
            handles.push(std::thread::spawn(move || {
                for q in &queries {
                    worker.try_query(q).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = db.stats();
        assert_eq!(s.queries_issued, 40, "replays must all hit the memo");
        assert_eq!(s.cache_hits, 4 * 40);
    }

    #[test]
    fn striped_capacity_is_enforced_per_stripe() {
        // 8 keys through 4 stripes with a total capacity of 4: each
        // stripe holds at most ceil(4/4) = 1 page, so the cache holds at
        // most one page per stripe regardless of key skew.
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), 4, 4);
        for i in 0..8 {
            db.try_query(&SelectionQuery::new(vec![price_ge(f64::from(i) * 500.0)]))
                .unwrap();
        }
        assert!(db.len() <= 4, "len {} exceeds stripe bound", db.len());
        let s = db.stats();
        assert_eq!(s.cache_misses, 8);
        assert_eq!(s.cache_evictions as usize + db.len(), 8);
    }

    #[test]
    fn clones_share_memo_and_counters() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        db.clone().try_query(&q).unwrap();
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1);
        assert_eq!(db.capacity(), 16);
    }
}
