//! The `counter_arith` fixture with saturating tallies and one bounded
//! index step under a statement-level `#[expect]`: clippy must accept
//! it.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/// A monotone event tally.
#[derive(Debug, Default)]
pub struct Stats {
    hits: u64,
}

impl Stats {
    /// Count one hit.
    pub fn hit(&mut self) {
        self.hits = self.hits.saturating_add(1);
    }

    /// The tally plus `extra` hits seen elsewhere.
    pub fn total(&self, extra: u64) -> u64 {
        self.hits.saturating_add(extra)
    }
}

/// The element after the first one equal to `x`, if any.
pub fn after(xs: &[u64], x: u64) -> Option<u64> {
    let pos = xs.iter().position(|&y| y == x)?;
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "fixture: pos < xs.len(), so pos + 1 cannot wrap"
    )]
    let next = pos + 1;
    xs.get(next).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_saturate() {
        let mut stats = Stats::default();
        stats.hit();
        assert_eq!(stats.total(u64::MAX), u64::MAX);
        assert_eq!(after(&[1, 2, 3], 2), Some(3));
    }
}
