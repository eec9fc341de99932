use std::cmp::Ordering;

/// An `f64` similarity/importance score with a *total* order.
///
/// Ranked answer sets sort on floating-point scores everywhere in the
/// suite, and `partial_cmp` silently mis-sorts when a NaN sneaks in
/// (every comparison returns `None`). Wrapping the score gives it IEEE
/// 754 `totalOrder` semantics via [`f64::total_cmp`]: `-NaN < -∞ < … <
/// +∞ < +NaN`, so sorting is always well-defined and deterministic.
///
/// The library crates deny `clippy::disallowed_methods`, and
/// `clippy.toml` bans `PartialOrd::partial_cmp` there; use
/// `f64::total_cmp` directly or sort on `OrderedScore` keys:
///
/// ```
/// use aimq_catalog::OrderedScore;
/// let mut scored = vec![("a", 0.3), ("b", 0.9), ("c", f64::NAN)];
/// scored.sort_by_key(|&(_, s)| std::cmp::Reverse(OrderedScore(s)));
/// assert_eq!(scored[0].0, "c"); // NaN sorts above every number
/// assert_eq!(scored[1].0, "b");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OrderedScore(pub f64);

impl OrderedScore {
    /// The wrapped score.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl From<f64> for OrderedScore {
    fn from(score: f64) -> Self {
        OrderedScore(score)
    }
}

impl PartialEq for OrderedScore {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrderedScore {}

impl PartialOrd for OrderedScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedScore {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totally_ordered_including_nan() {
        let mut xs = [
            OrderedScore(0.5),
            OrderedScore(f64::NAN),
            OrderedScore(-1.0),
            OrderedScore(f64::INFINITY),
        ];
        xs.sort();
        assert_eq!(xs[0].get(), -1.0);
        assert_eq!(xs[1].get(), 0.5);
        assert_eq!(xs[2].get(), f64::INFINITY);
        assert!(xs[3].get().is_nan());
    }

    #[test]
    fn nan_equals_itself_under_total_order() {
        assert_eq!(OrderedScore(f64::NAN), OrderedScore(f64::NAN));
        assert_ne!(OrderedScore(0.0), OrderedScore(1.0));
    }

    #[test]
    fn zero_signs_are_distinguished() {
        // totalOrder: -0.0 < +0.0 — stricter than `==`, still total.
        assert!(OrderedScore(-0.0) < OrderedScore(0.0));
    }
}
