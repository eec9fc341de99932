#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

//! # aimq-serve
//!
//! Concurrent query-serving runtime for the AIMQ engine — the layer the
//! paper's deployed BANKS/Autos frontend would sit on.
//!
//! A [`QueryServer`] owns a pool of worker threads, each answering
//! imprecise queries (Algorithm 1) against one shared, immutable,
//! `Arc`-wrapped [`aimq::AimqSystem`] and one shared source stack
//! (typically a lock-striped `CachedWebDb` over the fault-tolerant
//! access layer). In front of the pool sits a bounded
//! [`AdmissionQueue`]: once the queries queued or in service reach
//! `workers + queue_capacity`, new queries are refused with a typed
//! [`ServeError::Overloaded`] — backpressure is explicit, never an
//! unbounded buffer or a silent drop.
//!
//! Per-query **deadlines** run on virtual time: every in-flight query
//! gets a private [`DeadlineWebDb`] charging fixed ticks per probe, so
//! whether a query misses its deadline depends only on its own probe
//! count — not on machine speed, worker count, or interleaving. A miss
//! surfaces as [`ServeError::DeadlineExceeded`] carrying the engine's
//! partial answer and its `DegradationReport`.
//!
//! [`ServeStats`] aggregates the serving picture: admissions and
//! rejections, queue depth, a power-of-two latency histogram in probe
//! ticks, deadline misses, and per-worker utilization.
//!
//! This crate is inside the workspace's determinism lint scope (L3 +
//! L4): no hash containers, no wall-clock reads, no real sleeps — the
//! whole runtime replays byte-identically, which is what makes its
//! concurrency tests assertable.

mod deadline;
mod queue;
mod server;
mod stats;

pub use deadline::DeadlineWebDb;
pub use queue::{AdmissionQueue, Admitted, PushError};
pub use server::{QueryServer, ServeConfig, ServeOutcome, ServeResult, Ticket};
pub use stats::{ServeStats, ServeStatsSnapshot, LATENCY_BUCKETS};

use aimq::AnswerSet;

/// Why a query was not fully served.
#[derive(Debug)]
#[must_use]
pub enum ServeError {
    /// The admission queue (plus in-service slots) is at capacity;
    /// resubmit after backing off.
    Overloaded,
    /// The query exhausted its probe-tick budget. The engine degraded
    /// gracefully: `partial` holds whatever was ranked before the
    /// deadline, with the damage itemized in its `degradation` report.
    DeadlineExceeded {
        /// Partial answer set (possibly empty) with degradation report.
        partial: Box<AnswerSet>,
    },
    /// The server is shutting down and no longer admits queries, or it
    /// dropped the request's reply channel mid-shutdown.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full; query rejected"),
            ServeError::DeadlineExceeded { partial } => write!(
                f,
                "deadline exceeded after {} attempted probes ({} answers salvaged)",
                partial.degradation.probes_attempted,
                partial.answers.len()
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn runtime_types_are_send_and_sync() {
        // The whole point of the crate: the read path is Send + Sync
        // end-to-end, so one system + one source stack serve N workers.
        assert_send_sync::<QueryServer>();
        assert_send_sync::<AdmissionQueue<String>>();
        assert_send_sync::<ServeStats>();
        assert_send_sync::<DeadlineWebDb<'_>>();
        assert_send_sync::<std::sync::Arc<dyn aimq_storage::WebDatabase>>();
        assert_send_sync::<std::sync::Arc<aimq::AimqSystem>>();
    }
}
