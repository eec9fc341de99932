//! End-to-end guarantees of the concurrent serving runtime:
//!
//! 1. **overload pinning** — with queue capacity K and W gated workers,
//!    offering W + K + M queries admits exactly W + K and rejects
//!    exactly M with a typed `Overloaded`; nothing is silently dropped,
//!    and after the gate lifts every admitted query is served. A burst
//!    of W + K offered back to back to a fresh server, before any
//!    worker has taken a query, is admitted whole too;
//! 2. **wait overlap** — with W workers and W queries, W source probes
//!    are in flight at once, one per worker (pinned on a gate, not
//!    timed), so a latency-bound source serves W-fold throughput;
//! 3. **deadline pinning** — a query that exhausts its probe-tick
//!    budget returns `DeadlineExceeded` carrying the engine's partial
//!    answer and a populated `DegradationReport`;
//! 4. **concurrent = serial** — N worker threads replaying shuffled
//!    slices of a query log through one shared striped `CachedWebDb`
//!    produce byte-identical per-query answers to a serial replay, and
//!    (property-tested) this holds across fault profiles when the fault
//!    layer runs in *keyed* mode, where each probe's fate is a pure
//!    function of `(seed, canonical query)` rather than arrival order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use aimq_suite::catalog::{ImpreciseQuery, Schema, SelectionQuery};
use aimq_suite::data::CarDb;
use aimq_suite::engine::{AimqSystem, AnswerSet, EngineConfig, TrainConfig};
use aimq_suite::serve::{QueryServer, ServeConfig, ServeError, Ticket};
use aimq_suite::storage::{
    AccessStats, CachedWebDb, FaultInjectingWebDb, FaultProfile, InMemoryWebDb, QueryError,
    QueryPage, Relation, WebDatabase,
};
use proptest::prelude::*;

struct Harness {
    relation: Relation,
    system: Arc<AimqSystem>,
    queries: Vec<ImpreciseQuery>,
}

fn harness() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        let relation = CarDb::generate(1200, 19);
        let sample = relation.random_sample(500, 3);
        let system = AimqSystem::train(&sample, &TrainConfig::default()).unwrap();
        let queries: Vec<ImpreciseQuery> = (0..6u32)
            .map(|i| ImpreciseQuery::from_tuple(&relation.tuple(i * 83)).unwrap())
            .collect();
        Harness {
            relation,
            system: Arc::new(system),
            queries,
        }
    })
}

fn config() -> EngineConfig {
    EngineConfig {
        t_sim: 0.5,
        top_k: 10,
        ..EngineConfig::default()
    }
}

/// Answer-only fingerprint: ranked tuples with similarity bit patterns
/// and the base query. Meter-derived fields (`stats`, `retries`,
/// `breaker_trips`) are cross-worker aggregates under concurrency and
/// are deliberately excluded.
fn fingerprint(result: &AnswerSet) -> String {
    let answers: Vec<String> = result
        .answers
        .iter()
        .map(|a| {
            format!(
                "{:?}@{:016x}:{:?}",
                a.tuple,
                a.similarity.to_bits(),
                a.provenance
            )
        })
        .collect();
    format!(
        "base={:?} n={} | {}",
        result.base_query,
        result.base_set_size,
        answers.join(";")
    )
}

/// A source whose probes block until the test opens the gate — lets
/// overload tests hold all workers mid-query deterministically.
struct GatedWebDb {
    inner: InMemoryWebDb,
    open: Mutex<bool>,
    bell: Condvar,
    waiting: AtomicUsize,
}

impl GatedWebDb {
    fn new(inner: InMemoryWebDb) -> Self {
        GatedWebDb {
            inner,
            open: Mutex::new(false),
            bell: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }

    /// Open the gate. A poisoned lock still holds a valid `bool`, so
    /// the guard below can open it while a failed test unwinds.
    fn open_gate(&self) {
        *self.open.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.bell.notify_all();
    }

    /// Spin until `n` probes are parked on the gate. Gives up after ten
    /// seconds, failing the test.
    fn await_waiters(&self, n: usize) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while self.waiting.load(Ordering::Acquire) < n {
            if Instant::now() > give_up {
                let parked = self.waiting.load(Ordering::Acquire);
                panic!("only {parked} of {n} probes ever parked on the gate");
            }
            std::thread::yield_now();
        }
    }
}

/// Opens its gate when it drops. Declare it after the server: locals
/// drop in reverse order, so a failing assertion opens the gate before
/// `QueryServer`'s drop joins the workers parked on it, and the test
/// fails instead of hanging.
struct OpenOnDrop(Arc<GatedWebDb>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open_gate();
    }
}

impl WebDatabase for GatedWebDb {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let mut open = self.open.lock().unwrap();
        if !*open {
            self.waiting.fetch_add(1, Ordering::AcqRel);
            while !*open {
                open = self.bell.wait(open).unwrap();
            }
            self.waiting.fetch_sub(1, Ordering::AcqRel);
        }
        drop(open);
        self.inner.try_query(query)
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[test]
fn overload_rejects_exactly_the_excess_and_drops_nothing() {
    const WORKERS: usize = 2;
    const CAPACITY: usize = 3;
    const EXCESS: usize = 4;
    let h = harness();
    let gated = Arc::new(GatedWebDb::new(InMemoryWebDb::new(h.relation.clone())));
    let server = QueryServer::start(
        Arc::clone(&h.system),
        Arc::clone(&gated) as Arc<dyn WebDatabase>,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: CAPACITY,
            engine: config(),
            ..ServeConfig::default()
        },
    );
    let _gate = OpenOnDrop(Arc::clone(&gated));

    // Fill every in-service slot: W queries park on the gate.
    let q = &h.queries[0];
    let mut tickets: Vec<Ticket> = (0..WORKERS)
        .map(|_| server.submit(q.clone()).expect("worker slot"))
        .collect();
    gated.await_waiters(WORKERS);

    // Fill the queue behind them, then offer EXCESS more.
    for _ in 0..CAPACITY {
        tickets.push(server.submit(q.clone()).expect("queue slot"));
    }
    let mut rejected = 0;
    for _ in 0..EXCESS {
        match server.submit(q.clone()) {
            Err(ServeError::Overloaded) => rejected += 1,
            other => panic!("expected Overloaded, got {:?}", other.map(|_| "ticket")),
        }
    }
    assert_eq!(rejected, EXCESS, "every excess query rejected, typed");

    // Backpressure is recoverable: lift the gate, everything admitted
    // is served to completion.
    gated.open_gate();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, (WORKERS + CAPACITY + EXCESS) as u64);
    assert_eq!(stats.admitted, (WORKERS + CAPACITY) as u64);
    assert_eq!(stats.rejected, EXCESS as u64);
    assert_eq!(stats.completed, (WORKERS + CAPACITY) as u64);
}

#[test]
fn a_burst_of_workers_plus_capacity_is_admitted_whole() {
    // The limit counts queries queued or in service, however far the
    // workers have got: W + K submissions offered back to back to a
    // fresh server, before any worker has taken one, are all admitted,
    // and only the next one is refused.
    const WORKERS: usize = 4;
    const CAPACITY: usize = 1;
    let h = harness();
    let gated = Arc::new(GatedWebDb::new(InMemoryWebDb::new(h.relation.clone())));
    let server = QueryServer::start(
        Arc::clone(&h.system),
        Arc::clone(&gated) as Arc<dyn WebDatabase>,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: CAPACITY,
            engine: config(),
            ..ServeConfig::default()
        },
    );
    let _gate = OpenOnDrop(Arc::clone(&gated));
    let q = &h.queries[0];
    let burst: Vec<Result<Ticket, ServeError>> = (0..WORKERS + CAPACITY)
        .map(|_| server.submit(q.clone()))
        .collect();
    // The gate is shut, so no admitted query can finish and free a slot.
    let next = server.submit(q.clone());
    gated.open_gate();
    let refused: Vec<String> = burst
        .iter()
        .filter_map(|r| r.as_ref().err().map(ToString::to_string))
        .collect();
    assert!(refused.is_empty(), "a W+K burst was refused: {refused:?}");
    assert!(
        matches!(next, Err(ServeError::Overloaded)),
        "expected Overloaded, got {:?}",
        next.map(|_| "ticket")
    );
    for t in burst.into_iter().flatten() {
        assert!(t.wait().is_ok());
    }
    let stats = server.shutdown();
    assert_eq!(stats.admitted, (WORKERS + CAPACITY) as u64);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, (WORKERS + CAPACITY) as u64);
}

#[test]
fn every_worker_holds_a_source_probe_in_flight_at_once() {
    // On a latency-bound source, throughput scales with the number of
    // probes waiting at once. Pin that count instead of timing it: with
    // W workers and W queries, W probes must park on the gate together,
    // one per worker.
    let h = harness();
    for workers in [1, 2, 4, 8] {
        let gated = Arc::new(GatedWebDb::new(InMemoryWebDb::new(h.relation.clone())));
        let server = QueryServer::start(
            Arc::clone(&h.system),
            Arc::clone(&gated) as Arc<dyn WebDatabase>,
            ServeConfig {
                workers,
                queue_capacity: workers,
                engine: config(),
                ..ServeConfig::default()
            },
        );
        let _gate = OpenOnDrop(Arc::clone(&gated));
        let tickets: Vec<Ticket> = h
            .queries
            .iter()
            .cycle()
            .take(workers)
            .map(|q| server.submit(q.clone()).expect("admitted"))
            .collect();
        gated.await_waiters(workers);
        gated.open_gate();
        for t in tickets {
            assert!(t.wait().is_ok(), "{workers} workers");
        }
        let stats = server.shutdown();
        assert_eq!(stats.worker_processed, vec![1; workers], "{stats:#?}");
    }
}

#[test]
fn deadline_miss_is_a_typed_error_with_a_partial_report() {
    let h = harness();
    let db: Arc<dyn WebDatabase> = Arc::new(InMemoryWebDb::new(h.relation.clone()));
    let server = QueryServer::start(
        Arc::clone(&h.system),
        db,
        ServeConfig {
            workers: 1,
            queue_capacity: 4,
            deadline_ticks: 2,
            ticks_per_probe: 1,
            engine: config(),
        },
    );
    match server.submit(h.queries[0].clone()).unwrap().wait() {
        Err(ServeError::DeadlineExceeded { partial }) => {
            let d = &partial.degradation;
            assert!(
                d.is_degraded(),
                "deadline must mark the answer degraded: {d:#?}"
            );
            assert!(
                d.source_lost || d.probes_skipped > 0 || d.probes_failed > 0,
                "the report must itemize the cut: {d:#?}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {:?}", other.map(|_| "ok")),
    }
    let stats = server.shutdown();
    assert_eq!(stats.deadline_missed, 1);
}

#[test]
fn generous_deadline_changes_nothing() {
    let h = harness();
    // Reference: the plain single-threaded engine.
    let reference: Vec<String> = {
        let db = InMemoryWebDb::new(h.relation.clone());
        h.queries
            .iter()
            .map(|q| fingerprint(&h.system.answer(&db, q, &config())))
            .collect()
    };
    let db: Arc<dyn WebDatabase> = Arc::new(CachedWebDb::with_stripes(
        InMemoryWebDb::new(h.relation.clone()),
        1024,
        4,
    ));
    let server = QueryServer::start(
        Arc::clone(&h.system),
        db,
        ServeConfig {
            workers: 4,
            queue_capacity: 16,
            deadline_ticks: 1_000_000,
            ticks_per_probe: 1,
            engine: config(),
        },
    );
    let tickets: Vec<Ticket> = h
        .queries
        .iter()
        .map(|q| server.submit(q.clone()).expect("admitted"))
        .collect();
    for (t, expected) in tickets.into_iter().zip(&reference) {
        let outcome = t.wait().expect("well under deadline");
        assert_eq!(&fingerprint(&outcome.answer), expected);
    }
    server.shutdown();
}

// --- Satellite 3: concurrent replay == serial replay, across fault
// --- profiles, with the fault layer in keyed (order-independent) mode.

/// The shared stack of the concurrency property: striped cache over
/// keyed faults over the source. Keyed mode makes each probe's fate a
/// pure function of `(fault_seed, canonical query)`, so the stack's
/// observable behavior is independent of request interleaving. The
/// retry/breaker layer is deliberately absent here: its circuit breaker
/// and probe budget are *shared, order-dependent* state (consecutive
/// failures from different threads interleave differently), which is
/// exactly the kind of coupling this property forbids in the stack.
fn keyed_stack(profile: FaultProfile, fault_seed: u64) -> Arc<dyn WebDatabase> {
    Arc::new(CachedWebDb::with_stripes(
        FaultInjectingWebDb::keyed(
            InMemoryWebDb::new(harness().relation.clone()),
            profile,
            fault_seed,
        ),
        1024,
        4,
    ))
}

/// Replay `log` serially through `db`, one engine call per entry.
fn serial_replay(db: &dyn WebDatabase, log: &[&ImpreciseQuery]) -> Vec<String> {
    let h = harness();
    log.iter()
        .map(|q| fingerprint(&h.system.answer(db, q, &config())))
        .collect()
}

/// Replay `log` with `threads` workers, each taking a round-robin slice
/// shuffled by `shuffle_seed`; returns per-log-position fingerprints.
fn concurrent_replay(
    db: &Arc<dyn WebDatabase>,
    log: &[&ImpreciseQuery],
    threads: usize,
    shuffle_seed: u64,
) -> Vec<String> {
    let h = harness();
    let results: Vec<Mutex<String>> = log.iter().map(|_| Mutex::new(String::new())).collect();
    let results = Arc::new(results);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(db);
            let results = Arc::clone(&results);
            let mut slice: Vec<(usize, &ImpreciseQuery)> = log
                .iter()
                .enumerate()
                .filter(|(i, _)| i % threads == t)
                .map(|(i, q)| (i, *q))
                .collect();
            // Deterministic per-thread shuffle: rotate by a seed-derived
            // amount, then reverse on odd seeds — enough to decorrelate
            // arrival order from log order without an RNG.
            let n = slice.len().max(1);
            slice.rotate_left((shuffle_seed as usize).wrapping_add(t) % n);
            if (shuffle_seed ^ t as u64) & 1 == 1 {
                slice.reverse();
            }
            scope.spawn(move || {
                for (i, q) in slice {
                    let fp = fingerprint(&h.system.answer(&*db, q, &config()));
                    *results[i].lock().unwrap() = fp;
                }
            });
        }
    });
    results.iter().map(|m| m.lock().unwrap().clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N threads replaying shuffled slices of the log through one
    /// shared cache+faults stack answer byte-identically to a serial
    /// replay of the same log on an identically-built stack — for
    /// every fault profile.
    #[test]
    fn concurrent_replay_matches_serial_across_fault_profiles(
        fault_seed in 0u64..=u64::MAX,
        shuffle_seed in 0u64..=u64::MAX,
        profile_idx in 0usize..3,
        threads in 2usize..=4,
    ) {
        let profile = [FaultProfile::none(), FaultProfile::flaky(), FaultProfile::hostile()]
            [profile_idx];
        let h = harness();
        // Two passes over every query: the second pass exercises the
        // cross-call cache under contention.
        let log: Vec<&ImpreciseQuery> = h.queries.iter().chain(h.queries.iter()).collect();

        let serial = serial_replay(&*keyed_stack(profile, fault_seed), &log);
        let concurrent =
            concurrent_replay(&keyed_stack(profile, fault_seed), &log, threads, shuffle_seed);
        prop_assert_eq!(serial, concurrent);
    }
}
