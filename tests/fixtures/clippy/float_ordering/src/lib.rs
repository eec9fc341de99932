//! NaN-unsafe score ordering in a library crate root that denies the
//! `clippy.toml` method ban: clippy must reject the `.partial_cmp(`
//! call and the `#[derive(PartialOrd)]`, each with
//! `clippy::disallowed_methods`.
#![deny(clippy::disallowed_methods)]

/// Sorts scores best first with `partial_cmp`: a NaN compares as
/// `None` and lands wherever the sort happens to leave it.
pub fn rank(scores: &mut [(u32, f64)]) {
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
}

/// A derived `PartialOrd` calls `partial_cmp` on its field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(pub u32);
