//! The `float_ordering` fixture done the accepted ways: scores sorted
//! with `f64::total_cmp`, a hand-written `Ord` with
//! `PartialOrd { Some(self.cmp(other)) }`, and one `partial_cmp` call
//! justified by an `#[expect]`: clippy must accept it.
#![deny(clippy::disallowed_methods)]

use std::cmp::Ordering;

/// Sorts scores best first; NaN has a fixed place in the total order.
pub fn rank(scores: &mut [(u32, f64)]) {
    scores.sort_by(|a, b| b.1.total_cmp(&a.1));
}

/// Ordered by its field, as a derive would order it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank(pub u32);

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `None` when either side is NaN.
pub fn compare(a: f64, b: f64) -> Option<Ordering> {
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: the caller handles None for NaN explicitly"
    )]
    let order = a.partial_cmp(&b);
    order
}

