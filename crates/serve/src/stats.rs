//! Serving-side observability: admission counters, queue depth, a
//! latency histogram in virtual ticks, and per-worker utilization.
//!
//! Every field is an [`aimq_catalog::Counter`] (relaxed atomics) — the
//! counters are monotone and independently meaningful, so cross-field snapshot consistency (which
//! the storage meter's seqlock provides for `Work` accounting) is not
//! needed here; a snapshot that is off by one in-flight query is still
//! a correct observation of a concurrent system.
//!
//! Latencies are measured in **virtual probe ticks** (the per-query
//! [`crate::DeadlineWebDb`] clock), not wall time: the histogram of a
//! replayed query log is identical run to run and machine to machine,
//! which keeps serving tests assertable and the crate inside the
//! workspace's L4 wall-clock lint scope.

use aimq_catalog::{Counter, Json};
use serde::{Deserialize, Serialize};

/// Number of power-of-two latency buckets: bucket `i` counts queries
/// whose probe cost in ticks lies in `[2^(i-1), 2^i)` (bucket 0 holds
/// zero-tick queries); the last bucket absorbs everything larger.
pub const LATENCY_BUCKETS: usize = 16;

/// Shared serving counters. One instance per [`crate::QueryServer`],
/// updated by the submitting thread and every worker.
#[derive(Debug, Default)]
pub struct ServeStats {
    submitted: Counter,
    admitted: Counter,
    rejected: Counter,
    completed: Counter,
    deadline_missed: Counter,
    replies_dropped: Counter,
    max_queue_depth: Counter,
    latency_ticks_total: Counter,
    latency_hist: [Counter; LATENCY_BUCKETS],
    worker_processed: Vec<Counter>,
}

/// Plain-value copy of [`ServeStats`] for reporting.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStatsSnapshot {
    /// Queries offered to [`crate::QueryServer::submit`].
    pub submitted: u64,
    /// Queries accepted into the admission queue.
    pub admitted: u64,
    /// Queries refused with `Overloaded` (admitted + rejected +
    /// closed-rejections == submitted).
    pub rejected: u64,
    /// Queries fully served within their deadline.
    pub completed: u64,
    /// Queries that exhausted their probe-tick budget.
    pub deadline_missed: u64,
    /// Served results whose caller had already dropped the ticket, so
    /// the reply send failed. Not an error for the server — the work
    /// still counts toward `completed`/`deadline_missed` — but an
    /// abandoned-caller rate worth watching.
    pub replies_dropped: u64,
    /// Highest queue depth observed at any admission.
    pub max_queue_depth: u64,
    /// Sum of per-query probe costs, in virtual ticks.
    pub latency_ticks_total: u64,
    /// Power-of-two histogram of per-query probe cost.
    pub latency_hist: Vec<u64>,
    /// Queries processed per worker (index = worker id). The spread is
    /// the utilization picture: an idle worker shows up as a low count.
    pub worker_processed: Vec<u64>,
}

impl ServeStats {
    /// Counters for a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        ServeStats {
            worker_processed: (0..workers.max(1)).map(|_| Counter::default()).collect(),
            ..ServeStats::default()
        }
    }

    pub(crate) fn note_submitted(&self) {
        self.submitted.incr();
    }

    pub(crate) fn note_admitted(&self, depth_after: usize) {
        self.admitted.incr();
        self.max_queue_depth.raise_to(depth_after as u64);
    }

    pub(crate) fn note_rejected(&self) {
        self.rejected.incr();
    }

    pub(crate) fn note_reply_dropped(&self) {
        self.replies_dropped.incr();
    }

    pub(crate) fn note_served(&self, worker: usize, latency_ticks: u64, missed: bool) {
        if missed {
            self.deadline_missed.incr();
        } else {
            self.completed.incr();
        }
        self.latency_ticks_total.add(latency_ticks);
        let bucket = bucket_for(latency_ticks);
        if let Some(slot) = self.latency_hist.get(bucket) {
            slot.incr();
        }
        if let Some(slot) = self.worker_processed.get(worker) {
            slot.incr();
        }
    }

    /// Copy every counter. Each read is independent: see the module docs
    /// for why cross-field consistency is deliberately not promised.
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            submitted: self.submitted.get(),
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            deadline_missed: self.deadline_missed.get(),
            replies_dropped: self.replies_dropped.get(),
            max_queue_depth: self.max_queue_depth.get(),
            latency_ticks_total: self.latency_ticks_total.get(),
            latency_hist: self.latency_hist.iter().map(Counter::get).collect(),
            worker_processed: self.worker_processed.iter().map(Counter::get).collect(),
        }
    }
}

impl ServeStatsSnapshot {
    /// The snapshot as a deterministic [`Json`] object (field order is
    /// declaration order) — the single serialization path, served by
    /// the HTTP `GET /stats` route.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("submitted", Json::Num(self.submitted as f64)),
            ("admitted", Json::Num(self.admitted as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("deadline_missed", Json::Num(self.deadline_missed as f64)),
            ("replies_dropped", Json::Num(self.replies_dropped as f64)),
            ("max_queue_depth", Json::Num(self.max_queue_depth as f64)),
            (
                "latency_ticks_total",
                Json::Num(self.latency_ticks_total as f64),
            ),
            (
                "latency_hist",
                Json::Arr(
                    self.latency_hist
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            (
                "worker_processed",
                Json::Arr(
                    self.worker_processed
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Histogram bucket for a tick count: 0 → 0, otherwise
/// `floor(log2(ticks)) + 1`, saturating at the last bucket.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "leading_zeros() <= 64, so the subtraction cannot underflow"
)]
fn bucket_for(ticks: u64) -> usize {
    if ticks == 0 {
        0
    } else {
        let raw = 64 - ticks.leading_zeros() as usize;
        raw.min(LATENCY_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(2), 2);
        assert_eq!(bucket_for(3), 2);
        assert_eq!(bucket_for(4), 3);
        assert_eq!(bucket_for(1023), 10);
        assert_eq!(bucket_for(1024), 11);
        assert_eq!(bucket_for(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn snapshot_reflects_recorded_events() {
        let stats = ServeStats::new(2);
        stats.note_submitted();
        stats.note_submitted();
        stats.note_submitted();
        stats.note_admitted(1);
        stats.note_admitted(2);
        stats.note_rejected();
        stats.note_served(0, 30, false);
        stats.note_served(1, 50, true);
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.deadline_missed, 1);
        assert_eq!(snap.max_queue_depth, 2);
        assert_eq!(snap.latency_ticks_total, 80);
        assert_eq!(snap.worker_processed, vec![1, 1]);
        let hist_total: u64 = snap.latency_hist.iter().sum();
        assert_eq!(hist_total, 2);
        // 30 ticks → bucket 5 ([16,32)); 50 → bucket 6 ([32,64)).
        assert_eq!(snap.latency_hist.get(5), Some(&1));
        assert_eq!(snap.latency_hist.get(6), Some(&1));
    }

    #[test]
    fn out_of_range_worker_ids_are_ignored_not_panicked() {
        let stats = ServeStats::new(1);
        stats.note_served(99, 5, false);
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.worker_processed, vec![0]);
    }
}
