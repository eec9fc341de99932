//! The seqlock access meter behind every [`crate::WebDatabase`]'s
//! [`AccessStats`].
//!
//! This is one of the three modules allowed to name a raw atomic type
//! (`clippy.toml` bans them elsewhere in the library crates): a
//! seqlock's slots are written `Relaxed` and made safe only by the
//! version word's fences, which neither `aimq_catalog::Counter` nor
//! `aimq_catalog::Flag` can express.
#![expect(
    clippy::disallowed_types,
    reason = "seqlock: relaxed slots ordered by the version word's fences"
)]

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::AccessStats;

/// Number of counters in [`AccessStats`], and the order they occupy in a
/// [`StatsCell`]'s slot array.
const STAT_SLOTS: usize = 10;

impl AccessStats {
    fn to_slots(self) -> [u64; STAT_SLOTS] {
        [
            self.queries_issued,
            self.tuples_returned,
            self.failures,
            self.retries,
            self.truncated_queries,
            self.breaker_trips,
            self.breaker_recoveries,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
        ]
    }

    fn from_slots(s: [u64; STAT_SLOTS]) -> AccessStats {
        let [queries_issued, tuples_returned, failures, retries, truncated_queries, breaker_trips, breaker_recoveries, cache_hits, cache_misses, cache_evictions] =
            s;
        AccessStats {
            queries_issued,
            tuples_returned,
            failures,
            retries,
            truncated_queries,
            breaker_trips,
            breaker_recoveries,
            cache_hits,
            cache_misses,
            cache_evictions,
        }
    }
}

/// A shared access meter for hot probe paths: one `AtomicU64` per
/// [`AccessStats`] counter guarded by a seqlock version word, so writers
/// never park on a mutex (the single-lock `Mutex<AccessStats>` design
/// serialized every probe of every worker through one cache line's lock)
/// while [`StatsCell::snapshot`] still returns a *torn-free* stats block —
/// cross-counter invariants such as `tuples_returned` being consistent
/// with `queries_issued` hold in every snapshot, which per-counter
/// relaxed loads alone would not guarantee.
///
/// Protocol: a writer CASes the version from even to odd (spinning out
/// competing writers), issues a `Release` fence, applies its relaxed
/// counter updates, and releases with `version + 2`. A reader loads an
/// even version, reads the slots, issues an `Acquire` fence, and retries
/// unless the version is unchanged afterwards. Writer critical sections
/// are a handful of uncontended atomic adds, so reader retries are rare
/// and writers spin for nanoseconds, not syscalls.
/// Every access is an atomic operation — the cell is ThreadSanitizer
/// clean by construction.
#[derive(Debug)]
pub struct StatsCell {
    /// Seqlock word: odd while a write is in progress.
    version: AtomicU64,
    /// One slot per `AccessStats` field, in `to_slots` order.
    slots: [AtomicU64; STAT_SLOTS],
}

impl Default for StatsCell {
    fn default() -> Self {
        StatsCell {
            version: AtomicU64::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StatsCell {
    /// An all-zero meter.
    pub fn new() -> Self {
        StatsCell::default()
    }

    /// Enter the write section: flip the version to odd, excluding both
    /// competing writers and in-flight readers. Returns the even version
    /// observed on entry.
    fn begin_write(&self) -> u64 {
        let mut v = self.version.load(Ordering::Relaxed);
        loop {
            if v % 2 == 1 {
                // The writer holding the odd version may have been
                // preempted; yielding beats burning the timeslice,
                // especially on single-core hosts.
                std::thread::yield_now();
                v = self.version.load(Ordering::Relaxed);
                continue;
            }
            match self.version.compare_exchange_weak(
                v,
                v.wrapping_add(1),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // Pairs with the reader's Acquire fence: a reader
                    // that sees any slot write that follows also sees
                    // the odd version on its recheck, and retries. The
                    // Acquire CAS alone does not order later relaxed
                    // writes after it for other threads (crossbeam's
                    // `SeqLock::write` fences the same way).
                    fence(Ordering::Release);
                    return v;
                }
                Err(seen) => v = seen,
            }
        }
    }

    /// Add every nonzero counter of `delta` to the meter, atomically with
    /// respect to [`StatsCell::snapshot`].
    pub fn record(&self, delta: AccessStats) {
        let v = self.begin_write();
        for (slot, d) in self.slots.iter().zip(delta.to_slots()) {
            if d != 0 {
                slot.fetch_add(d, Ordering::Relaxed);
            }
        }
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    /// Zero every counter (used between experiment runs).
    pub fn reset(&self) {
        let v = self.begin_write();
        for slot in &self.slots {
            slot.store(0, Ordering::Relaxed);
        }
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    /// A coherent snapshot of all counters: retries until it reads a
    /// quiescent version, so no write is ever observed half-applied.
    pub fn snapshot(&self) -> AccessStats {
        loop {
            let before = self.version.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::thread::yield_now();
                continue;
            }
            let mut slots = [0u64; STAT_SLOTS];
            for (out, slot) in slots.iter_mut().zip(&self.slots) {
                *out = slot.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == before {
                return AccessStats::from_slots(slots);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stats_cell_snapshots_never_tear_across_fields() {
        // Direct cell hammering with a multi-field delta: every snapshot
        // must see `tuples_returned == 7 * queries_issued` and
        // `failures == queries_issued` exactly, or the seqlock tore.
        let cell = Arc::new(StatsCell::new());
        let delta = AccessStats {
            queries_issued: 1,
            tuples_returned: 7,
            failures: 1,
            ..AccessStats::default()
        };
        let mut writers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            writers.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    cell.record(delta);
                }
            }));
        }
        let reader = Arc::clone(&cell);
        let checker = std::thread::spawn(move || {
            for _ in 0..500 {
                let s = reader.snapshot();
                assert_eq!(s.tuples_returned, 7 * s.queries_issued, "tore: {s:?}");
                assert_eq!(s.failures, s.queries_issued, "tore: {s:?}");
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        checker.join().unwrap();
        let s = cell.snapshot();
        assert_eq!(s.queries_issued, 4000);
        assert_eq!(s.tuples_returned, 28_000);
    }

    #[test]
    fn stats_cell_reset_and_since_semantics() {
        // `since()` over StatsCell snapshots behaves exactly as it did
        // over mutex-guarded stats: deltas across a marker snapshot
        // reflect only the traffic in between.
        let cell = StatsCell::new();
        cell.record(AccessStats {
            queries_issued: 2,
            tuples_returned: 6,
            ..AccessStats::default()
        });
        let marker = cell.snapshot();
        cell.record(AccessStats {
            queries_issued: 1,
            tuples_returned: 3,
            cache_hits: 4,
            ..AccessStats::default()
        });
        let delta = cell.snapshot().since(&marker);
        assert_eq!(delta.queries_issued, 1);
        assert_eq!(delta.tuples_returned, 3);
        assert_eq!(delta.cache_hits, 4);
        cell.reset();
        assert_eq!(cell.snapshot(), AccessStats::default());
    }
}
