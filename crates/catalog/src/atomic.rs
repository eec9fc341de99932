//! Shared counters and flags whose API admits only the sanctioned
//! memory orderings.
//!
//! `clippy.toml` bans the raw `std::sync::atomic` integer and bool
//! types in the library crates, so these two newtypes are how shared
//! state is counted or signalled:
//!
//! - [`Counter`]: a statistics tally. Every operation is `Relaxed`,
//!   because each counter is independently meaningful and no reader
//!   infers anything about *other* memory from its value. `add`
//!   saturates, so an overflowing budget or tally pins at `u64::MAX`
//!   instead of wrapping to a fresh-looking small number.
//! - [`Flag`]: a one-way signal. `set` is a `Release` store and
//!   `is_set` an `Acquire` load, so everything the setter wrote before
//!   raising the flag is visible to a reader that sees it raised.
//!
//! Shared state that needs more than one independent counter or flag
//! (the storage access meter, the serving queue's in-flight count) is
//! a [`crate::Leaf`] instead, so this is the only module that names a
//! raw atomic.
#![expect(
    clippy::disallowed_types,
    reason = "the audited home of the Relaxed-counter and Release/Acquire-flag atomics"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A monotone, saturating statistics counter (all operations
/// `Relaxed`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        let saturating = |v: u64| Some(v.saturating_add(n));
        // `fetch_update` fails only when the closure declines, and this
        // one never does: both arms are the same no-op.
        match self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, saturating)
        {
            Ok(_previous) | Err(_previous) => {}
        }
    }

    /// Raise the counter to `value` if it is below it (a high-water
    /// mark).
    pub fn raise_to(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A one-way flag: `set` publishes (`Release`), `is_set` observes
/// (`Acquire`).
#[derive(Debug, Default)]
pub struct Flag(AtomicBool);

impl Flag {
    /// A lowered flag.
    pub const fn new() -> Self {
        Flag(AtomicBool::new(false))
    }

    /// Raise the flag. Writes made before this call are visible to any
    /// thread that then sees [`Flag::is_set`] return `true`.
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_raises_and_saturates() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.raise_to(3);
        assert_eq!(c.get(), 5, "raise_to never lowers");
        c.raise_to(9);
        assert_eq!(c.get(), 9);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "add saturates instead of wrapping");
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn counter_is_exact_under_concurrent_increments() {
        let c = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn flag_is_one_way() {
        let f = Flag::new();
        assert!(!f.is_set());
        f.set();
        assert!(f.is_set());
        f.set();
        assert!(f.is_set());
    }
}
