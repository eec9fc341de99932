//! The `hashmap` fixture with each use justified by an `#[expect]`, and
//! the ordered containers the ban steers towards: clippy must accept it.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::BTreeMap;
#[expect(
    clippy::disallowed_types,
    reason = "fixture: insert-only membership set, never iterated"
)]
use std::collections::HashSet;

/// Counts occurrences in key order.
pub fn histogram(codes: &[u32]) -> BTreeMap<u32, u32> {
    let mut counts = BTreeMap::new();
    for &c in codes {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts
}

/// Number of distinct codes; only `len()` is read.
pub fn distinct_count(codes: &[u32]) -> usize {
    #[expect(
        clippy::disallowed_types,
        reason = "fixture: insert-only membership set, never iterated"
    )]
    let seen: HashSet<u32> = codes.iter().copied().collect();
    seen.len()
}
