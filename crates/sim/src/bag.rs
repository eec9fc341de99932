use std::collections::BTreeMap;

/// A bag (multiset) of feature codes with occurrence counts — one entry of
/// a supertuple (e.g. the `Color` bag of `Make=Ford`: `White:5, Black:5,
/// ...` in the paper's Table 1).
///
/// Internally a code-sorted `Vec<(code, count)>` so that the Jaccard
/// coefficient of two bags is a linear merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bag {
    entries: Vec<(u32, u32)>,
}

impl Bag {
    /// The empty bag.
    pub fn new() -> Self {
        Bag::default()
    }

    /// Build from a (code, count) accumulation. The map's key order
    /// already matches the bag's sorted representation.
    pub fn from_counts(counts: &BTreeMap<u32, u32>) -> Self {
        let entries: Vec<(u32, u32)> = counts
            .iter()
            .filter(|&(_, &c)| c > 0)
            .map(|(&k, &v)| (k, v))
            .collect();
        Bag { entries }
    }

    /// Build from an iterator of codes, counting multiplicities.
    pub fn from_codes(codes: impl IntoIterator<Item = u32>) -> Self {
        let mut counts = BTreeMap::new();
        for c in codes {
            *counts.entry(c).or_insert(0) += 1;
        }
        Bag::from_counts(&counts)
    }

    /// Number of distinct codes.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Total multiplicity (bag cardinality).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| u64::from(c)).sum()
    }

    /// `true` when the bag has no members.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occurrence count of `code`.
    #[expect(
        clippy::indexing_slicing,
        reason = "i comes from a successful binary_search"
    )]
    pub fn count(&self, code: u32) -> u32 {
        self.entries
            .binary_search_by_key(&code, |&(k, _)| k)
            .map_or(0, |i| self.entries[i].1)
    }

    /// Iterate `(code, count)` pairs in ascending code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Bag-semantics **Jaccard coefficient**:
    /// `|A ∩ B| / |A ∪ B| = Σ min(a,b) / Σ max(a,b)`.
    ///
    /// Two empty bags have similarity 0 (no shared evidence — the paper's
    /// supertuples never co-occur with *nothing*, so this case only arises
    /// for values outside the mined sample).
    pub fn jaccard(&self, other: &Bag) -> f64 {
        let mut inter: u64 = 0;
        let mut union: u64 = 0;
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        while i < a.len() && j < b.len() {
            #[expect(
                clippy::indexing_slicing,
                reason = "i and j are bounded by the merge loop condition"
            )]
            let order = a[i].0.cmp(&b[j].0);
            match order {
                std::cmp::Ordering::Less => {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i and j are bounded by the merge loop condition"
                    )]
                    let count = a[i].1;
                    union += u64::from(count);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i and j are bounded by the merge loop condition"
                    )]
                    let count = b[j].1;
                    union += u64::from(count);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i and j are bounded by the merge loop condition"
                    )]
                    let low = a[i].1.min(b[j].1);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i and j are bounded by the merge loop condition"
                    )]
                    let high = a[i].1.max(b[j].1);
                    inter += u64::from(low);
                    union += u64::from(high);
                    i += 1;
                    j += 1;
                }
            }
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "i and j are bounded by the merge loop condition"
        )]
        let rest_a: u64 = a[i..].iter().map(|&(_, c)| u64::from(c)).sum();
        #[expect(
            clippy::indexing_slicing,
            reason = "i and j are bounded by the merge loop condition"
        )]
        let rest_b: u64 = b[j..].iter().map(|&(_, c)| u64::from(c)).sum();
        union += rest_a + rest_b;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_codes_counts_multiplicity() {
        let b = Bag::from_codes([3, 1, 3, 3, 1, 7]);
        assert_eq!(b.count(3), 3);
        assert_eq!(b.count(1), 2);
        assert_eq!(b.count(7), 1);
        assert_eq!(b.count(9), 0);
        assert_eq!(b.distinct(), 3);
        assert_eq!(b.total(), 6);
    }

    #[test]
    fn identical_bags_have_jaccard_one() {
        let b = Bag::from_codes([1, 1, 2, 5]);
        assert_eq!(b.jaccard(&b), 1.0);
    }

    #[test]
    fn disjoint_bags_have_jaccard_zero() {
        let a = Bag::from_codes([1, 2]);
        let b = Bag::from_codes([3, 4]);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    #[test]
    fn partial_overlap_hand_computed() {
        // A = {1:2, 2:1}, B = {1:1, 3:2}
        // min: 1 (code 1); max: 2 (code 1) + 1 (code 2) + 2 (code 3) = 5.
        let a = Bag::from_codes([1, 1, 2]);
        let b = Bag::from_codes([1, 3, 3]);
        assert!((a.jaccard(&b) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bag_semantics_differ_from_set_semantics() {
        // Same support {1}, different counts.
        let a = Bag::from_codes([1, 1, 1, 1]);
        let b = Bag::from_codes([1]);
        assert!((a.jaccard(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_bags() {
        let e = Bag::new();
        assert!(e.is_empty());
        assert_eq!(e.jaccard(&e), 0.0);
        let b = Bag::from_codes([1]);
        assert_eq!(e.jaccard(&b), 0.0);
        assert_eq!(b.jaccard(&e), 0.0);
    }

    #[test]
    fn zero_counts_filtered() {
        let mut m = BTreeMap::new();
        m.insert(4u32, 0u32);
        m.insert(5u32, 2u32);
        let b = Bag::from_counts(&m);
        assert_eq!(b.distinct(), 1);
        assert_eq!(b.count(4), 0);
    }

    proptest! {
        #[test]
        fn jaccard_is_symmetric(
            xs in prop::collection::vec(0u32..10, 0..40),
            ys in prop::collection::vec(0u32..10, 0..40)
        ) {
            let a = Bag::from_codes(xs);
            let b = Bag::from_codes(ys);
            prop_assert!((a.jaccard(&b) - b.jaccard(&a)).abs() < 1e-15);
        }

        #[test]
        fn jaccard_in_unit_interval(
            xs in prop::collection::vec(0u32..10, 0..40),
            ys in prop::collection::vec(0u32..10, 0..40)
        ) {
            let s = Bag::from_codes(xs).jaccard(&Bag::from_codes(ys));
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn self_similarity_is_one_unless_empty(
            xs in prop::collection::vec(0u32..10, 1..40)
        ) {
            let a = Bag::from_codes(xs);
            prop_assert!((a.jaccard(&a) - 1.0).abs() < 1e-15);
        }

        #[test]
        fn jaccard_matches_brute_force(
            xs in prop::collection::vec(0u32..6, 0..30),
            ys in prop::collection::vec(0u32..6, 0..30)
        ) {
            let a = Bag::from_codes(xs.clone());
            let b = Bag::from_codes(ys.clone());
            let mut inter = 0u64;
            let mut union = 0u64;
            for code in 0u32..6 {
                let ca = xs.iter().filter(|&&x| x == code).count() as u64;
                let cb = ys.iter().filter(|&&y| y == code).count() as u64;
                inter += ca.min(cb);
                union += ca.max(cb);
            }
            let expected = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
            prop_assert!((a.jaccard(&b) - expected).abs() < 1e-12);
        }
    }
}
