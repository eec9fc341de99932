//! Plain arithmetic on a tally in a library crate root: clippy must
//! reject both shapes with `clippy::arithmetic_side_effects`, since a
//! release build would wrap the count silently.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/// A monotone event tally.
#[derive(Debug, Default)]
pub struct Stats {
    hits: u64,
}

impl Stats {
    /// Count one hit.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// The tally plus `extra` hits seen elsewhere.
    pub fn total(&self, extra: u64) -> u64 {
        self.hits + extra
    }
}
