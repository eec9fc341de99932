//! Raw atomics in a library crate root: clippy must reject every use
//! with `clippy::disallowed_types`, steering them to
//! `aimq_catalog::Counter` and `Flag`.
#![deny(clippy::disallowed_types)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A hand-rolled counter and flag, orderings chosen per call site.
#[derive(Debug, Default)]
pub struct Meter {
    hits: AtomicU64,
    done: AtomicBool,
}

impl Meter {
    /// Count one hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish completion — with the wrong ordering, which nothing
    /// but review would catch.
    pub fn finish(&self) {
        self.done.store(true, Ordering::Relaxed);
    }
}
