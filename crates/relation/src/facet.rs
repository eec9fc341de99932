//! Facet tree over a value-sorted numeric index.
//!
//! The sorted index `[(value, row)]` answers a range predicate with two
//! binary searches, but the rows it yields come back in *value* order —
//! useless for the posting-list set algebra in `aimq-storage`'s
//! executor, which needs row-id-sorted lists to intersect. Re-sorting the
//! slice per query is O(m log m) on every probe; wide relaxation ranges
//! pay it over and over.
//!
//! The facet tree (after MeiliDB/milli's facet-range search) trades a
//! modest amount of build-time memory for O(edges) range evaluation: leaf
//! buckets of consecutive sorted positions and internal nodes of fanout
//! `F` each precompute the *row-id-sorted* union of the positions they
//! cover. A range `[start, end)` in position space decomposes into O(log)
//! whole nodes plus at most `2·bucket` partial-edge positions; the node
//! lists and the sorted edge entries k-way merge ([`union_kway`]) into
//! one sorted result without ever touching the interior positions
//! individually.
//!
//! Position bounds themselves come from `partition_point` over the sorted
//! index (see `aimq-storage`'s posting-list executor); the tree is
//! deliberately ignorant of values — it only maps position ranges to
//! sorted row sets.

use crate::RowId;

/// Leaf bucket width in sorted positions. Small enough that partial-edge
/// scans stay cheap, large enough that the per-level memory overhead
/// (each level re-stores every covered row id once) stays near
/// `n / bucket` list headers.
const DEFAULT_BUCKET: usize = 64;

/// Internal-node fanout: each level-`l+1` node unions `F` level-`l`
/// nodes. With bucket 64 and fanout 8 a 100k-row attribute is 5 levels.
const DEFAULT_FANOUT: usize = 8;

/// K-way merge union of ascending row-id lists into one ascending,
/// duplicate-free list.
pub fn union_kway(lists: &[&[RowId]]) -> Vec<RowId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut cursors = vec![0usize; lists.len()];
    let mut heap: BinaryHeap<Reverse<(RowId, usize)>> = lists
        .iter()
        .enumerate()
        .filter_map(|(i, list)| list.first().map(|&row| Reverse((row, i))))
        .collect();
    let mut out = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    while let Some(Reverse((row, i))) = heap.pop() {
        if out.last() != Some(&row) {
            out.push(row);
        }
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "a cursor stays at most its list's length, so c + 1 cannot wrap"
        )]
        let next = cursors.get(i).map_or(0, |&c| c + 1);
        if let Some(cursor) = cursors.get_mut(i) {
            *cursor = next;
        }
        if let Some(&row) = lists.get(i).and_then(|list| list.get(next)) {
            heap.push(Reverse((row, i)));
        }
    }
    out
}

/// A static facet tree over one numeric attribute's value-sorted index.
///
/// Node `i` of level `l` covers positions `[i·span, (i+1)·span)` with
/// `span = bucket · fanout^l` (the last node of a level may cover fewer)
/// and stores the row ids of those positions in ascending row-id order.
/// The top level always holds a single root covering every position.
#[derive(Debug, Clone)]
pub struct FacetTree {
    /// Row id at each value-sorted position (the leaf ordering).
    rows_by_position: Vec<RowId>,
    /// Leaf bucket width in positions.
    bucket: usize,
    /// Internal-node fanout.
    fanout: usize,
    /// `levels[l][i]`: ascending row ids covered by node `i` of level `l`.
    /// Level 0 holds the leaf buckets; the last level holds one root.
    /// Empty when the attribute has no indexed positions.
    levels: Vec<Vec<Vec<RowId>>>,
}

impl FacetTree {
    /// Build a tree over `sorted`, the value-ascending `(value, row)`
    /// index of one numeric attribute, with the default shape.
    pub fn build(sorted: &[(f64, RowId)]) -> FacetTree {
        FacetTree::with_shape(sorted, DEFAULT_BUCKET, DEFAULT_FANOUT)
    }

    /// Build with an explicit `bucket` width and `fanout` (both clamped
    /// to sane minimums: bucket ≥ 1, fanout ≥ 2).
    pub fn with_shape(sorted: &[(f64, RowId)], bucket: usize, fanout: usize) -> FacetTree {
        let bucket = bucket.max(1);
        let fanout = fanout.max(2);
        let rows_by_position: Vec<RowId> = sorted.iter().map(|&(_, row)| row).collect();
        let mut levels: Vec<Vec<Vec<RowId>>> = Vec::new();
        if !rows_by_position.is_empty() {
            let mut current: Vec<Vec<RowId>> = rows_by_position
                .chunks(bucket)
                .map(|chunk| {
                    let mut rows = chunk.to_vec();
                    rows.sort_unstable();
                    rows
                })
                .collect();
            loop {
                let width = current.len();
                levels.push(current);
                if width <= 1 {
                    break;
                }
                let below = levels.last().map(Vec::as_slice).unwrap_or(&[]);
                current = below
                    .chunks(fanout)
                    .map(|nodes| {
                        let slices: Vec<&[RowId]> = nodes.iter().map(Vec::as_slice).collect();
                        union_kway(&slices)
                    })
                    .collect();
            }
        }
        FacetTree {
            rows_by_position,
            bucket,
            fanout,
            levels,
        }
    }

    /// Number of indexed positions (rows with a non-null value).
    pub fn len(&self) -> usize {
        self.rows_by_position.len()
    }

    /// `true` when the attribute has no indexed positions.
    pub fn is_empty(&self) -> bool {
        self.rows_by_position.is_empty()
    }

    /// The row ids at value-sorted positions `[start, end)`, returned in
    /// ascending *row-id* order. Bounds are clamped to the index length;
    /// an empty or inverted range yields an empty list.
    ///
    /// Decomposition invariant: every position in the range is covered by
    /// exactly one contributed node or edge entry, so the merged output
    /// is an exact, duplicate-free row set.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "positions stay below twice the index length: `pos` < `end` <= len, a node \
                  is taken only when `pos + span <= end`, `bucket` <= `pos` unless `pos` is 0, \
                  `level` < `levels.len()`, and `span` >= `bucket` >= 1"
    )]
    pub fn rows_in_positions(&self, start: usize, end: usize) -> Vec<RowId> {
        let n = self.rows_by_position.len();
        let start = start.min(n);
        let end = end.min(n);
        if start >= end {
            return Vec::new();
        }
        // Whole-index fast path: the root already holds the full union.
        if start == 0 && end == n {
            if let Some(root) = self.levels.last().and_then(|level| level.first()) {
                return root.clone();
            }
        }
        let mut node_lists: Vec<&[RowId]> = Vec::new();
        let mut edge_rows: Vec<RowId> = Vec::new();
        let mut pos = start;
        while pos < end {
            if pos.is_multiple_of(self.bucket) && pos + self.bucket <= end {
                // Climb to the widest node aligned at `pos` that still
                // fits inside the range.
                let mut level = 0usize;
                let mut span = self.bucket;
                while level + 1 < self.levels.len() {
                    let wider = span.saturating_mul(self.fanout);
                    if pos.is_multiple_of(wider) && pos.saturating_add(wider) <= end {
                        level += 1;
                        span = wider;
                    } else {
                        break;
                    }
                }
                if let Some(rows) = self
                    .levels
                    .get(level)
                    .and_then(|nodes| nodes.get(pos / span))
                {
                    node_lists.push(rows);
                    pos += span;
                    continue;
                }
            }
            // Partial-edge position: contribute the single row.
            if let Some(&row) = self.rows_by_position.get(pos) {
                edge_rows.push(row);
            }
            pos += 1;
        }
        edge_rows.sort_unstable();
        node_lists.push(&edge_rows);
        union_kway(&node_lists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn union_kway_basics() {
        assert_eq!(union_kway(&[]), Vec::<RowId>::new());
        assert_eq!(union_kway(&[&[], &[]]), Vec::<RowId>::new());
        assert_eq!(union_kway(&[&[1, 3], &[2, 4]]), vec![1, 2, 3, 4]);
        assert_eq!(
            union_kway(&[&[1, 2, 3], &[2, 3, 4], &[0, 4]]),
            vec![0, 1, 2, 3, 4]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn union_matches_reference_union(
            lists in prop::collection::vec(prop::collection::vec(0u32..100, 0..30), 0..6),
        ) {
            let sorted: Vec<Vec<RowId>> = lists
                .iter()
                .map(|l| { let mut l = l.clone(); l.sort_unstable(); l.dedup(); l })
                .collect();
            let slices: Vec<&[RowId]> = sorted.iter().map(Vec::as_slice).collect();
            let mut expect: Vec<RowId> = sorted.iter().flatten().copied().collect();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(union_kway(&slices), expect);
        }
    }

    /// Reference: slice the position range and sort by row id.
    fn naive(sorted: &[(f64, RowId)], start: usize, end: usize) -> Vec<RowId> {
        let end = end.min(sorted.len());
        let start = start.min(end);
        let mut rows: Vec<RowId> = sorted
            .get(start..end)
            .unwrap_or(&[])
            .iter()
            .map(|&(_, row)| row)
            .collect();
        rows.sort_unstable();
        rows
    }

    /// A value-sorted index whose row ids are deliberately scrambled
    /// relative to position order.
    fn index(n: usize) -> Vec<(f64, RowId)> {
        (0..n)
            .map(|i| (i as f64, ((i * 7919 + 13) % n) as RowId))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = FacetTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.rows_in_positions(0, 10).is_empty());
    }

    #[test]
    fn single_bucket_tree_answers_everything() {
        let idx = index(5);
        let t = FacetTree::with_shape(&idx, 64, 8);
        assert_eq!(t.rows_in_positions(0, 5), naive(&idx, 0, 5));
        assert_eq!(t.rows_in_positions(1, 4), naive(&idx, 1, 4));
        assert_eq!(t.rows_in_positions(2, 2), Vec::<RowId>::new());
    }

    #[test]
    fn ranges_agree_with_naive_slice_across_shapes() {
        for n in [1usize, 7, 63, 64, 65, 200, 513] {
            let idx = index(n);
            for (bucket, fanout) in [(4, 2), (8, 4), (64, 8), (3, 3)] {
                let t = FacetTree::with_shape(&idx, bucket, fanout);
                for &(start, end) in &[
                    (0usize, n),
                    (0, n / 2),
                    (n / 3, n),
                    (1, n.saturating_sub(1)),
                    (n / 4, 3 * n / 4),
                    (5, 6),
                    (0, 0),
                    (n, n),
                ] {
                    assert_eq!(
                        t.rows_in_positions(start, end),
                        naive(&idx, start, end),
                        "n={n} bucket={bucket} fanout={fanout} range=[{start},{end})"
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_are_clamped() {
        let idx = index(10);
        let t = FacetTree::with_shape(&idx, 4, 2);
        assert_eq!(t.rows_in_positions(0, 999), naive(&idx, 0, 10));
        assert_eq!(t.rows_in_positions(8, 999), naive(&idx, 8, 10));
        assert!(t.rows_in_positions(50, 60).is_empty());
        assert!(t.rows_in_positions(6, 3).is_empty());
    }

    #[test]
    fn output_is_sorted_and_duplicate_free() {
        let idx = index(129);
        let t = FacetTree::with_shape(&idx, 8, 4);
        let rows = t.rows_in_positions(3, 121);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rows.len(), 121 - 3);
    }

    #[test]
    fn degenerate_shapes_are_clamped() {
        let idx = index(20);
        let t = FacetTree::with_shape(&idx, 0, 0);
        assert_eq!(t.rows_in_positions(0, 20), naive(&idx, 0, 20));
        assert_eq!(t.rows_in_positions(7, 13), naive(&idx, 7, 13));
    }
}
