//! Hash containers in a determinism crate root: clippy must reject both
//! uses with `clippy::disallowed_types`.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::{HashMap, HashSet};

/// Counts occurrences; the map's iteration order is nondeterministic.
pub fn histogram(codes: &[u32]) -> HashMap<u32, u32> {
    let mut counts = HashMap::new();
    for &c in codes {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts
}

/// Distinct codes; the set's iteration order is nondeterministic.
pub fn distinct(codes: &[u32]) -> HashSet<u32> {
    codes.iter().copied().collect()
}
