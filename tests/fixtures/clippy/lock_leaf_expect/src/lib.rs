//! The `lock_leaf` shapes written the way `aimq_catalog::Leaf` allows:
//! the probe runs after the section returns, and the two locks are
//! taken one after the other. rustc must accept it.

use aimq_catalog::Leaf;

/// A stand-in for the autonomous source: a probe may stall for as long
/// as the source takes.
pub trait Source {
    /// Probe the source.
    fn try_query(&self, q: u32) -> u32;
}

/// A memo in front of a source.
pub struct Memo<S> {
    inner: S,
    state: Leaf<u32>,
}

impl<S: Source> Memo<S> {
    /// Reads the memo, then probes with no lock held.
    pub fn probe(&self, q: u32) -> u32 {
        let memo = self.state.with((), |memo, ()| *memo);
        memo + self.inner.try_query(q)
    }
}

/// Two locks of one owner.
pub struct Pair {
    left: Leaf<u32>,
    right: Leaf<u32>,
}

impl Pair {
    /// Reads `left`, then hands the value to `right`'s section.
    pub fn sequential(&self) -> u32 {
        let l = self.left.with((), |l, ()| *l);
        self.right.with(l, |r, l| *r + l)
    }
}
