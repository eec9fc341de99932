//! Backlog accounting for admission control: how many admitted queries
//! are queued or on a worker right now.
//!
//! A reservation is a [`BacklogSlot`] that gives itself back on drop.
//! The slot travels inside the request, so it is released on every
//! path a request can end on: served, refused by a full or closed
//! queue, or unwound out of a panicking worker.
//!
//! This is one of the three modules allowed to name a raw atomic type
//! (`clippy.toml` bans them elsewhere in the library crates): the
//! occupancy count goes down as well as up, which the monotone
//! `aimq_catalog::Counter` deliberately cannot.
#![expect(
    clippy::disallowed_types,
    reason = "the backlog count is the one serving counter that also decrements"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The shared occupancy count and its limit. `Relaxed` suffices: the
/// count only decides admission, and no other memory is published
/// through it.
#[derive(Debug)]
pub(crate) struct Backlog {
    occupied: AtomicUsize,
    limit: usize,
}

/// One reserved unit of backlog, released when dropped.
#[derive(Debug)]
pub(crate) struct BacklogSlot {
    backlog: Arc<Backlog>,
}

impl Backlog {
    /// An empty backlog admitting at most `limit` reservations.
    pub(crate) fn new(limit: usize) -> Arc<Backlog> {
        Arc::new(Backlog {
            occupied: AtomicUsize::new(0),
            limit,
        })
    }

    /// Reserve a slot, or `None` when the backlog is full.
    pub(crate) fn try_reserve(self: &Arc<Self>) -> Option<BacklogSlot> {
        let before = self.occupied.fetch_add(1, Ordering::Relaxed);
        let slot = BacklogSlot {
            backlog: Arc::clone(self),
        };
        // Over the limit, the slot is dropped here, which undoes the
        // increment.
        (before < self.limit).then_some(slot)
    }

    /// Slots currently reserved.
    #[cfg(test)]
    pub(crate) fn occupied(&self) -> usize {
        self.occupied.load(Ordering::Relaxed)
    }
}

impl Drop for BacklogSlot {
    fn drop(&mut self) {
        self.backlog.occupied.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_stop_at_the_limit_and_drops_release_them() {
        let backlog = Backlog::new(2);
        let a = backlog.try_reserve().expect("first slot");
        let b = backlog.try_reserve().expect("second slot");
        assert!(backlog.try_reserve().is_none(), "the limit is 2");
        assert_eq!(backlog.occupied(), 2, "a refused reservation holds nothing");
        drop(a);
        let c = backlog.try_reserve().expect("a released slot is reusable");
        drop((b, c));
        assert_eq!(backlog.occupied(), 0);
    }
}
