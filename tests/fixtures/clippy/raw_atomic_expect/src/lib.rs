//! The `raw_atomic` fixture confined to one audited module that
//! justifies its raw atomics with a module-level `#[expect]`: clippy
//! must accept it.
#![deny(clippy::disallowed_types)]

/// The audited home of the crate's raw atomics.
pub mod audited {
    #![expect(
        clippy::disallowed_types,
        reason = "fixture: the one module whose API fixes the orderings"
    )]

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A counter and a flag whose orderings the API fixes.
    #[derive(Debug, Default)]
    pub struct Meter {
        hits: AtomicU64,
        done: AtomicBool,
    }

    impl Meter {
        /// Count one hit (`Relaxed`: a standalone tally).
        pub fn hit(&self) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }

        /// Publish completion (`Release`, paired with `is_done`).
        pub fn finish(&self) {
            self.done.store(true, Ordering::Release);
        }

        /// Whether `finish` ran (`Acquire`).
        pub fn is_done(&self) -> bool {
            self.done.load(Ordering::Acquire)
        }
    }
}
