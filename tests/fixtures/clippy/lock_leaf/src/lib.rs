//! The two lock-discipline violations (L5), written
//! against `aimq_catalog::Leaf`: a probe inside a critical section,
//! and a nested acquisition. Each is tried once by capture,
//! which rustc rejects with E0308 (a closure that captures is not a
//! `fn`), and once through the section's input, which it rejects with
//! E0277 (neither a source nor a lock is `Plain`).

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
    /// Probes inside the section, reaching the source by capture.
    pub fn probe_captured(&self, q: u32) -> u32 {
        self.state
            .with(q, |memo, q| *memo + self.inner.try_query(q))
    }

    /// Probes inside the section, handed the source as its input.
    pub fn probe_passed(&self, q: u32) -> u32 {
        self.state.with((&self.inner, q), |memo, (inner, q)| {
            *memo + inner.try_query(q)
        })
    }
}

/// Two locks of one owner.
pub struct Pair {
    left: Leaf<u32>,
    right: Leaf<u32>,
}

impl Pair {
    /// Takes `right` inside `left`'s section, reaching it by capture.
    pub fn nested_captured(&self) -> u32 {
        self.left
            .with((), |l, ()| *l + self.right.with((), |r, ()| *r))
    }

    /// Takes `right` inside `left`'s section, handed it as the input.
    pub fn nested_passed(&self) -> u32 {
        self.left
            .with(&self.right, |l, right| *l + right.with((), |r, ()| *r))
    }
}
