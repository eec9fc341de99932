//! The worker pool: a [`QueryServer`] owns N threads, each running
//! Algorithm 1 against a shared, immutable [`AimqSystem`] and a shared
//! [`WebDatabase`] stack, fed from one bounded [`AdmissionQueue`].
//!
//! # Determinism under concurrency
//!
//! The knowledge base is immutable after training and the engine is
//! stateless per call, so a query's *answers* are a pure function of
//! `(system, db contents, query, engine config)` — worker count and
//! interleaving change only throughput. The one shared mutable surface
//! is the source stack (cache fills, access meters): cache state can
//! change *which layer* serves a probe but never the page it returns
//! (first-insertion-wins memoization of complete pages), and the meters
//! are cross-query aggregates by design. Consequently the engine's
//! per-answer `stats`/`retries` deltas are **not** comparable across
//! concurrency levels — byte-identity checks must compare ranked
//! answers, base query, and degradation probe counts, not meter deltas.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use aimq::{AimqSystem, AnswerSet, EngineConfig};
use aimq_catalog::{ImpreciseQuery, Leaf, Plain};
use aimq_storage::WebDatabase;

use crate::backlog::{Backlog, BacklogSlot};
use crate::queue::{AdmissionQueue, PushError};
use crate::stats::{ServeStats, ServeStatsSnapshot};
use crate::{DeadlineWebDb, ServeError};

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Admission-queue capacity; offered load beyond `workers +
    /// queue_capacity` in flight is rejected as `Overloaded`.
    pub queue_capacity: usize,
    /// Per-query probe-tick budget; 0 disables deadlines.
    pub deadline_ticks: u64,
    /// Virtual ticks charged per probe (see [`DeadlineWebDb`]).
    pub ticks_per_probe: u64,
    /// Engine configuration shared by every worker.
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            deadline_ticks: 0,
            ticks_per_probe: 1,
            engine: EngineConfig::default(),
        }
    }
}

/// A successfully served query.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The engine's full answer (top-k, base query, degradation).
    pub answer: AnswerSet,
    /// Probe cost in virtual ticks (the serving latency measure).
    pub latency_ticks: u64,
    /// Which worker served it (utilization attribution).
    pub worker: usize,
}

/// Per-query result delivered through a [`Ticket`].
pub type ServeResult = Result<ServeOutcome, ServeError>;

struct Request {
    /// This request's backlog reservation, released when the request is
    /// dropped: after its reply is sent, when the queue refuses it, or
    /// while a panicking worker unwinds. Declared first so it is
    /// released before `reply` closes, so a waiter woken by a dropped
    /// reply never sees its own slot still held.
    _slot: BacklogSlot,
    query: ImpreciseQuery,
    reply: mpsc::Sender<ServeResult>,
}

/// A query, a reply sender whose `send` never blocks and a slot whose
/// release is one atomic decrement; the queue only moves requests.
impl Plain for Request {}

/// Handle to one admitted query; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<ServeResult>,
}

impl Ticket {
    /// Block until the query is served (or the server shuts down with
    /// the request still queued, which yields `ShuttingDown`).
    pub fn wait(self) -> ServeResult {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// A running pool of query workers. Dropping without
/// [`QueryServer::shutdown`] also joins the workers (graceful drain).
pub struct QueryServer {
    queue: Arc<AdmissionQueue<Request>>,
    stats: Arc<ServeStats>,
    /// Admitted queries that are queued or on a worker.
    backlog: Arc<Backlog>,
    engine_config: Arc<Leaf<EngineConfig>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryServer {
    /// Start `config.workers` threads serving queries against the
    /// shared `system` and `db`. Both are `Arc`s: the knowledge base is
    /// immutable, and the source stack must be safe for concurrent
    /// probing (every decorator in `aimq-storage` is).
    pub fn start(
        system: Arc<AimqSystem>,
        db: Arc<dyn WebDatabase>,
        config: ServeConfig,
    ) -> QueryServer {
        let workers = config.workers.max(1);
        let queue = Arc::new(AdmissionQueue::new(config.queue_capacity.max(1)));
        let stats = Arc::new(ServeStats::new(workers));
        // Backpressure bound: admitted work is either queued or on a
        // worker; beyond queue + workers there is nowhere for it to go
        // but a growing backlog, so it is rejected instead.
        let backlog = Backlog::new(config.queue_capacity.max(1).saturating_add(workers));
        let engine_config = Arc::new(Leaf::new(config.engine));
        let handles = (0..workers)
            .map(|worker_id| {
                let system = Arc::clone(&system);
                let db = Arc::clone(&db);
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let engine_config = Arc::clone(&engine_config);
                let config = config.clone();
                std::thread::spawn(move || {
                    while let Some(request) = queue.pop() {
                        // Copy the engine knobs out at dequeue time: a
                        // concurrent reconfiguration applies to queries
                        // dequeued after it.
                        let engine = engine_config.with((), |config, ()| *config);
                        serve_one(&system, &*db, &config, &engine, &stats, worker_id, request);
                    }
                })
            })
            .collect();
        QueryServer {
            queue,
            stats,
            backlog,
            engine_config,
            workers: handles,
        }
    }

    /// Offer a query. Admitted queries return a [`Ticket`]; when the
    /// backlog (queued + in service) is at capacity the query is
    /// rejected with [`ServeError::Overloaded`] — backpressure is a
    /// typed refusal, never an unbounded buffer or a silent drop.
    pub fn submit(&self, query: ImpreciseQuery) -> Result<Ticket, ServeError> {
        self.stats.note_submitted();
        // Reserve a backlog slot first; the queue's own capacity check
        // alone would let `workers` extra requests slip in while their
        // predecessors occupy the workers.
        let Some(slot) = self.backlog.try_reserve() else {
            self.stats.note_rejected();
            return Err(ServeError::Overloaded);
        };
        let (tx, rx) = mpsc::channel();
        let request = Request {
            _slot: slot,
            query,
            reply: tx,
        };
        // A refused request comes back in the error and is dropped
        // with it, which releases its slot.
        match self.queue.try_push(request) {
            Ok(depth) => {
                self.stats.note_admitted(depth);
                Ok(Ticket { rx })
            }
            Err(PushError::Overloaded(_)) => {
                self.stats.note_rejected();
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed(_)) => {
                self.stats.note_rejected();
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Serving counters so far.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.stats.snapshot()
    }

    /// The engine knobs queries are currently answered under (the
    /// `GET /config` view).
    pub fn engine_config(&self) -> EngineConfig {
        self.engine_config.with((), |config, ()| *config)
    }

    /// Replace the engine knobs. Queries dequeued after the call are
    /// answered under `config`; queries already on a worker keep the
    /// knobs they started with (a query is never reconfigured mid-run).
    pub fn set_engine_config(&self, config: EngineConfig) {
        self.engine_config
            .with(config, |current, new| *current = new);
    }

    /// Stop admitting new queries; everything already admitted keeps
    /// being served. Idempotent. This is the first half of
    /// [`QueryServer::shutdown`], exposed separately so a network front
    /// end can sequence its own drain between the halves: stop
    /// accepting connections → close admission → drain in-flight
    /// replies → join the pool.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Stop admitting, drain the queue, join every worker, and return
    /// the final counters. The ordering is the drain guarantee: the
    /// queue closes first, the workers are joined — which delivers
    /// every in-flight ticket's reply — and only then is the snapshot
    /// taken, so it observes a fully drained server.
    pub fn shutdown(mut self) -> ServeStatsSnapshot {
        self.close();
        for handle in self.workers.drain(..) {
            // A worker that panicked already delivered `ShuttingDown`
            // to its waiters via the dropped channel; joining the rest
            // matters more than propagating the panic payload.
            #[expect(
                clippy::let_underscore_must_use,
                clippy::let_underscore_untyped,
                reason = "join Err is a worker panic already surfaced to waiters"
            )]
            let _ = handle.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                clippy::let_underscore_untyped,
                reason = "Drop must not panic; a worker panic is not recoverable here"
            )]
            let _ = handle.join();
        }
    }
}

fn serve_one(
    system: &AimqSystem,
    db: &dyn WebDatabase,
    config: &ServeConfig,
    engine: &EngineConfig,
    stats: &ServeStats,
    worker: usize,
    request: Request,
) {
    let deadline_db = DeadlineWebDb::new(db, config.deadline_ticks, config.ticks_per_probe);
    let answer = system.answer(&deadline_db, &request.query, engine);
    let latency_ticks = deadline_db.elapsed_ticks();
    let missed = deadline_db.deadline_missed();
    stats.note_served(worker, latency_ticks, missed);
    let result = if missed {
        // The engine already degraded gracefully on the deadline's
        // `Unavailable`: the partial answer set and its report ride
        // along in the typed error.
        Err(ServeError::DeadlineExceeded {
            partial: Box::new(answer),
        })
    } else {
        Ok(ServeOutcome {
            answer,
            latency_ticks,
            worker,
        })
    };
    // A dropped ticket (caller gave up) is not an error for the server,
    // but it is an observable event: an abandoned-caller spike means
    // deadlines and client patience have drifted apart.
    if request.reply.send(result).is_err() {
        stats.note_reply_dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq::TrainConfig;
    use aimq_catalog::Value;
    use aimq_catalog::{Schema, SelectionQuery};
    use aimq_data::CarDb;
    use aimq_storage::{AccessStats, CachedWebDb, InMemoryWebDb, QueryError, QueryPage};

    fn system_and_db() -> (Arc<AimqSystem>, Arc<dyn WebDatabase>, Vec<ImpreciseQuery>) {
        let db = InMemoryWebDb::new(CarDb::generate(600, 7));
        let sample = db.relation().random_sample(200, 1);
        let system = AimqSystem::train(&sample, &TrainConfig::default()).unwrap();
        let schema = db.schema().clone();
        let queries = ["Camry", "Accord", "Civic", "Corolla"]
            .iter()
            .map(|m| {
                ImpreciseQuery::builder(&schema)
                    .like("Model", Value::cat(*m))
                    .unwrap()
                    .build()
                    .unwrap()
            })
            .collect();
        let shared: Arc<dyn WebDatabase> = Arc::new(CachedWebDb::with_stripes(db, 1024, 8));
        (Arc::new(system), shared, queries)
    }

    #[test]
    fn concurrent_answers_match_the_single_threaded_engine() {
        let (system, _, queries) = system_and_db();
        // The log twice over: the second pass meets a warm shared cache
        // under contention.
        let log: Vec<&ImpreciseQuery> = queries.iter().chain(&queries).collect();
        let n = log.len() as u64;
        // Reference: the plain engine on a cold, separate stack.
        let reference: Vec<AnswerSet> = {
            let cold = InMemoryWebDb::new(CarDb::generate(600, 7));
            log.iter()
                .map(|q| system.answer(&cold, q, &EngineConfig::default()))
                .collect()
        };

        // Worker count and interleaving must never change an answer:
        // every rung of the ladder gets its own cold striped cache.
        for workers in [1, 2, 4, 8] {
            let db: Arc<dyn WebDatabase> = Arc::new(CachedWebDb::with_stripes(
                InMemoryWebDb::new(CarDb::generate(600, 7)),
                1024,
                8,
            ));
            let server = QueryServer::start(
                Arc::clone(&system),
                db,
                ServeConfig {
                    workers,
                    queue_capacity: log.len(),
                    ..ServeConfig::default()
                },
            );
            let tickets: Vec<Ticket> = log
                .iter()
                .map(|q| server.submit((*q).clone()).expect("admitted"))
                .collect();
            for (ticket, expected) in tickets.into_iter().zip(&reference) {
                let got = ticket.wait().expect("served").answer;
                assert_eq!(
                    got.answers.len(),
                    expected.answers.len(),
                    "{workers} workers"
                );
                for (g, e) in got.answers.iter().zip(&expected.answers) {
                    assert_eq!(g.tuple, e.tuple, "{workers} workers");
                    assert_eq!(g.similarity.to_bits(), e.similarity.to_bits());
                    assert_eq!(g.provenance, e.provenance, "{workers} workers");
                }
                assert_eq!(got.base_query, expected.base_query, "{workers} workers");
                assert_eq!(got.base_set_size, expected.base_set_size);
            }
            let final_stats = server.shutdown();
            assert_eq!(final_stats.admitted, n, "{final_stats:#?}");
            assert_eq!(final_stats.completed, n, "{final_stats:#?}");
            assert_eq!(final_stats.rejected, 0, "{final_stats:#?}");
            assert_eq!(
                final_stats.worker_processed.iter().sum::<u64>(),
                n,
                "{final_stats:#?}"
            );
        }
    }

    #[test]
    fn tight_deadline_returns_typed_error_with_partial_report() {
        let (system, db, queries) = system_and_db();
        let server = QueryServer::start(
            system,
            db,
            ServeConfig {
                workers: 1,
                queue_capacity: 4,
                deadline_ticks: 1, // one probe, then the axe
                ticks_per_probe: 1,
                ..ServeConfig::default()
            },
        );
        let q = queries.first().expect("queries").clone();
        let outcome = server.submit(q).expect("admitted").wait();
        match outcome {
            Err(ServeError::DeadlineExceeded { partial }) => {
                assert!(
                    partial.degradation.source_lost || partial.degradation.probes_skipped > 0,
                    "deadline must surface as degradation: {:#?}",
                    partial.degradation
                );
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let final_stats = server.shutdown();
        assert_eq!(final_stats.deadline_missed, 1);
        assert_eq!(final_stats.completed, 0);
    }

    #[test]
    fn an_unbounded_queue_capacity_saturates_the_backlog() {
        // `--queue 18446744073709551615`: queue plus workers saturates
        // instead of wrapping to a backlog of a few slots.
        let (system, db, queries) = system_and_db();
        let server = QueryServer::start(
            system,
            db,
            ServeConfig {
                workers: 2,
                queue_capacity: usize::MAX,
                ..ServeConfig::default()
            },
        );
        let q = queries.first().expect("queries").clone();
        assert!(server.submit(q).expect("admitted").wait().is_ok());
        assert_eq!(server.shutdown().completed, 1);
    }

    #[test]
    fn shutdown_serves_everything_admitted() {
        let (system, db, queries) = system_and_db();
        let server = QueryServer::start(
            system,
            db,
            ServeConfig {
                workers: 2,
                queue_capacity: 32,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..12)
            .filter_map(|i| queries.get(i % queries.len()))
            .map(|q| server.submit(q.clone()).expect("admitted"))
            .collect();
        let final_stats = server.shutdown();
        assert_eq!(final_stats.admitted, 12);
        assert_eq!(final_stats.completed + final_stats.deadline_missed, 12);
        assert_eq!(
            final_stats.replies_dropped, 0,
            "every ticket is still held, so no reply may be dropped"
        );
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn reconfiguration_applies_to_later_queries() {
        let (system, db, queries) = system_and_db();
        let server = QueryServer::start(
            system,
            db,
            ServeConfig {
                workers: 1,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        );
        let q = queries.first().expect("queries").clone();
        let before = server.submit(q.clone()).expect("admitted").wait();
        let before = before.expect("served").answer;
        assert_eq!(server.engine_config().top_k, 10);
        let mut cfg = server.engine_config();
        cfg.top_k = 3;
        server.set_engine_config(cfg);
        assert_eq!(server.engine_config().top_k, 3);
        let after = server.submit(q).expect("admitted").wait();
        let after = after.expect("served").answer;
        assert!(after.answers.len() <= 3, "top_k=3 must cap the answers");
        assert!(before.answers.len() >= after.answers.len());
        server.shutdown();
    }

    #[test]
    fn racing_shutdown_drops_no_admitted_replies() {
        let (system, db, queries) = system_and_db();
        let server = QueryServer::start(
            system,
            db,
            ServeConfig {
                workers: 2,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        );
        // Three submitters race the close: whatever they get admitted
        // must still be served; the rest must be refused with a typed
        // error, never silently dropped.
        let tickets: Vec<Ticket> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|t| {
                    let server = &server;
                    let queries = &queries;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..8 {
                            let q = queries[(t + i) % queries.len()].clone();
                            if let Ok(ticket) = server.submit(q) {
                                mine.push(ticket);
                            }
                        }
                        mine
                    })
                })
                .collect();
            server.close();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        for ticket in tickets {
            assert!(
                ticket.wait().is_ok(),
                "an admitted ticket must be served even across close()"
            );
        }
        let final_stats = server.shutdown();
        assert_eq!(
            final_stats.replies_dropped, 0,
            "shutdown must drain in-flight tickets before snapshotting: {final_stats:#?}"
        );
        assert_eq!(
            final_stats.completed + final_stats.deadline_missed,
            final_stats.admitted,
            "every admitted query is served exactly once: {final_stats:#?}"
        );
    }

    /// A database whose probes block until the test opens its gate, so
    /// a ticket can be abandoned while its query is deterministically
    /// still in flight.
    struct GatedDb<D> {
        inner: D,
        gate: Arc<(Leaf<bool>, std::sync::Condvar)>,
    }

    impl<D: WebDatabase> WebDatabase for GatedDb<D> {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
            // Blocks until the test opens the gate; every later probe
            // sails through.
            let (open, opened) = &*self.gate;
            open.wait_for(opened, (), |open, ()| open.then_some(()));
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
    fn abandoned_ticket_is_counted_not_swallowed() {
        let (system, _, queries) = system_and_db();
        let gate = Arc::new((Leaf::new(false), std::sync::Condvar::new()));
        let db: Arc<dyn WebDatabase> = Arc::new(GatedDb {
            inner: InMemoryWebDb::new(CarDb::generate(600, 7)),
            gate: Arc::clone(&gate),
        });
        let server = QueryServer::start(
            system,
            db,
            ServeConfig {
                workers: 1,
                queue_capacity: 4,
                ..ServeConfig::default()
            },
        );
        let q = queries.first().expect("queries").clone();
        let ticket = server.submit(q).expect("admitted");
        // The lone worker is now (or soon) parked inside the gated
        // probe. Abandon the ticket first, then open the gate: the
        // worker finishes the query and finds nobody waiting.
        drop(ticket);
        gate.0.with((), |open, ()| *open = true);
        gate.1.notify_all();
        let final_stats = server.shutdown();
        assert_eq!(final_stats.admitted, 1);
        assert_eq!(final_stats.completed + final_stats.deadline_missed, 1);
        assert_eq!(
            final_stats.replies_dropped, 1,
            "the abandoned reply must be counted: {final_stats:#?}"
        );
    }

    #[test]
    fn refused_and_dropped_requests_release_their_backlog_slots() {
        let schema = Schema::builder("R").categorical("Make").build().unwrap();
        let query = ImpreciseQuery::builder(&schema)
            .like("Make", Value::cat("Honda"))
            .unwrap()
            .build()
            .unwrap();
        let backlog = Backlog::new(4);
        let request = || Request {
            _slot: backlog.try_reserve().expect("backlog has room"),
            query: query.clone(),
            reply: mpsc::channel().0,
        };
        let queue = AdmissionQueue::new(1);
        assert!(matches!(queue.try_push(request()), Ok(1)));
        assert!(matches!(
            queue.try_push(request()),
            Err(PushError::Overloaded(_))
        ));
        assert_eq!(
            backlog.occupied(),
            1,
            "the refused request released its slot"
        );
        drop(queue.pop());
        assert_eq!(
            backlog.occupied(),
            0,
            "the dropped request released its slot"
        );
    }

    /// A database whose every probe panics, standing in for a crashing
    /// source driver.
    struct PanickingDb(InMemoryWebDb);

    impl WebDatabase for PanickingDb {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }

        fn try_query(&self, _query: &SelectionQuery) -> Result<QueryPage, QueryError> {
            panic!("source driver crashed");
        }

        fn stats(&self) -> AccessStats {
            self.0.stats()
        }

        fn reset_stats(&self) {
            self.0.reset_stats()
        }
    }

    #[test]
    fn a_panicking_worker_releases_its_backlog_slot() {
        let (system, _, queries) = system_and_db();
        let db: Arc<dyn WebDatabase> =
            Arc::new(PanickingDb(InMemoryWebDb::new(CarDb::generate(600, 7))));
        let server = QueryServer::start(
            system,
            db,
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        let q = queries.first().expect("queries").clone();
        let outcome = server.submit(q).expect("admitted").wait();
        assert!(
            matches!(outcome, Err(ServeError::ShuttingDown)),
            "the unwinding worker drops the reply: {outcome:?}"
        );
        assert_eq!(server.backlog.occupied(), 0);
    }
}
