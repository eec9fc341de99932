//! Raw locks in a library crate root: clippy must reject both with
//! `clippy::disallowed_types`, steering them to `aimq_catalog::Leaf`,
//! whose sections cannot hold a guard across a probe the way
//! `probe_through` does here.
#![deny(clippy::disallowed_types)]

use std::sync::PoisonError;

/// A stand-in for the autonomous source: a probe may stall for as long
/// as the source takes.
pub trait Source {
    /// Probe the source.
    fn try_query(&self, q: u32) -> u32;
}

/// A memo in front of a source, behind the raw std locks.
pub struct Memo<S> {
    inner: S,
    state: std::sync::Mutex<u32>,
    seen: std::sync::RwLock<Vec<u32>>,
}

impl<S: Source> Memo<S> {
    /// Probes with the memo's guard live: every other caller waits out
    /// the source.
    pub fn probe_through(&self, q: u32) -> u32 {
        let memo = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *memo + self.inner.try_query(q)
    }

    /// How many queries were seen.
    pub fn seen(&self) -> usize {
        self.seen
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}
