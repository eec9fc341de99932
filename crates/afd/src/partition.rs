use aimq_relation::{RowId, NULL_CODE};

/// A *stripped partition*: the equivalence classes (of size ≥ 2) induced on
/// the rows by an attribute set. Singleton classes are dropped — they can
/// never violate a dependency — which is the representation trick that
/// makes TANE fast (Huhtala et al., Section 4).
///
/// Null-valued rows are treated as pairwise distinct (each its own
/// singleton) and therefore never appear in any class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    n_rows: usize,
    classes: Vec<Vec<RowId>>,
}

impl Partition {
    /// Partition induced by a single encoded column: rows sharing a code
    /// form a class; `NULL_CODE` rows are singletons.
    pub fn from_codes(codes: &[u32]) -> Self {
        // Two passes: count class sizes, then fill. Codes are dense, so a
        // Vec keyed by code works as the grouping table.
        let max_code = codes
            .iter()
            .filter(|&&c| c != NULL_CODE)
            .max()
            .map_or(0, |&c| c as usize + 1);
        let mut counts = vec![0u32; max_code];
        for &c in codes {
            #[expect(
                clippy::indexing_slicing,
                reason = "sized to the dictionary cardinality; codes are in-range by interning"
            )]
            if c != NULL_CODE {
                counts[c as usize] += 1;
            }
        }
        let mut groups: Vec<Vec<RowId>> = counts
            .iter()
            .map(|&n| Vec::with_capacity(if n >= 2 { n as usize } else { 0 }))
            .collect();
        for (row, &c) in codes.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "sized to the dictionary cardinality; codes are in-range by interning"
            )]
            let grouped = c != NULL_CODE && counts[c as usize] >= 2;
            if grouped {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "sized to the dictionary cardinality; codes are in-range by interning"
                )]
                groups[c as usize].push(row as RowId);
            }
        }
        let classes = groups.into_iter().filter(|g| g.len() >= 2).collect();
        Partition {
            n_rows: codes.len(),
            classes,
        }
    }

    /// The single-class partition where all rows are equivalent — the
    /// partition of the empty attribute set.
    pub fn universal(n_rows: usize) -> Self {
        if n_rows < 2 {
            return Partition {
                n_rows,
                classes: Vec::new(),
            };
        }
        Partition {
            n_rows,
            classes: vec![(0..n_rows as RowId).collect()],
        }
    }

    /// Number of rows in the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The stripped classes.
    pub fn classes(&self) -> &[Vec<RowId>] {
        &self.classes
    }

    /// Number of stripped classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// `||π||`: number of rows appearing in stripped classes.
    pub fn row_count(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// `true` when the attribute set is an exact key (every class is a
    /// singleton, so the stripped partition is empty).
    pub fn is_unique(&self) -> bool {
        self.classes.is_empty()
    }

    /// TANE's linear-time **stripped product** `π_self · π_other`: the
    /// partition of the union of the two attribute sets.
    pub fn product(&self, other: &Partition) -> Partition {
        debug_assert_eq!(self.n_rows, other.n_rows);
        // `t[row]` = index of row's class in `self`, or NONE.
        const NONE: u32 = u32::MAX;
        let mut t = vec![NONE; self.n_rows];
        for (i, class) in self.classes.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
            )]
            for &row in class {
                t[row as usize] = i as u32;
            }
        }
        let mut s: Vec<Vec<RowId>> = vec![Vec::new(); self.classes.len()];
        let mut out = Vec::new();
        for class in &other.classes {
            for &row in class {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
                )]
                let i = t[row as usize];
                if i != NONE {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
                    )]
                    s[i as usize].push(row);
                }
            }
            for &row in class {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
                )]
                let i = t[row as usize];
                if i != NONE {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
                    )]
                    let bucket = &mut s[i as usize];
                    if bucket.len() >= 2 {
                        out.push(std::mem::take(bucket));
                    } else {
                        bucket.clear();
                    }
                }
            }
        }
        Partition {
            n_rows: self.n_rows,
            classes: out,
        }
    }

    /// g3 error of this attribute set **as a key**: the minimum fraction
    /// of rows to delete so that no two rows agree on the set. With
    /// stripped partitions this is `Σ (|c| − 1) / n`.
    pub fn key_error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let excess: usize = self.classes.iter().map(|c| c.len() - 1).sum();
        excess as f64 / self.n_rows as f64
    }

    /// g1 error of this attribute set **as a key**: the fraction of
    /// *ordered tuple pairs* that agree on the set,
    /// `g1(X) = Σ_c |c|·(|c|−1) / n²` — the pair-counting alternative to
    /// [`key_error`](Self::key_error) from Kivinen & Mannila.
    pub fn key_error_g1(&self) -> f64 {
        if self.n_rows < 2 {
            return 0.0;
        }
        let agreeing: u64 = self
            .classes
            .iter()
            .map(|c| {
                let s = c.len() as u64;
                s * (s - 1)
            })
            .sum();
        agreeing as f64 / (self.n_rows as u64 * self.n_rows as u64) as f64
    }

    /// g1 error of the AFD `X → A`: the fraction of ordered tuple pairs
    /// that agree on `X` but disagree on `A`,
    /// `g1(X→A) = Σ_{c∈π_X} (|c|² − Σ_i s_i²) / n²` where the `s_i` are
    /// the sizes of `c`'s subclasses under `π_{X∪A}`.
    pub fn afd_error_g1(&self, refined: &Partition) -> f64 {
        debug_assert_eq!(self.n_rows, refined.n_rows);
        if self.n_rows < 2 {
            return 0.0;
        }
        // subclass_size[row] = |row's class in refined| (1 if singleton);
        // summing it over the rows of a class c yields Σ_i s_i².
        let mut subclass_size = vec![1u64; self.n_rows];
        for class in &refined.classes {
            let len = class.len() as u64;
            #[expect(
                clippy::indexing_slicing,
                reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
            )]
            for &row in class {
                subclass_size[row as usize] = len;
            }
        }
        let mut violating: u64 = 0;
        for class in &self.classes {
            let size = class.len() as u64;
            #[expect(
                clippy::indexing_slicing,
                reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
            )]
            let sum_sq: u64 = class.iter().map(|&row| subclass_size[row as usize]).sum();
            violating += size * size - sum_sq;
        }
        violating as f64 / (self.n_rows as u64 * self.n_rows as u64) as f64
    }

    /// g3 error of the AFD `X → A`, where `self` is `π_X` and `refined` is
    /// `π_{X∪A}`: the minimum fraction of rows to delete so the FD holds
    /// exactly. For each class `c` of `π_X` the survivors are the largest
    /// `π_{X∪A}`-subclass inside `c`; everything else must go.
    pub fn afd_error(&self, refined: &Partition) -> f64 {
        debug_assert_eq!(self.n_rows, refined.n_rows);
        if self.n_rows == 0 {
            return 0.0;
        }
        // subclass_size[row] = |row's class in refined| (1 if singleton).
        let mut subclass_size = vec![1u32; self.n_rows];
        for class in &refined.classes {
            let len = class.len() as u32;
            #[expect(
                clippy::indexing_slicing,
                reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
            )]
            for &row in class {
                subclass_size[row as usize] = len;
            }
        }
        let mut removed = 0usize;
        for class in &self.classes {
            #[expect(
                clippy::indexing_slicing,
                reason = "row-indexed scratch sized to the relation; rows come from its own partitions"
            )]
            let max_sub = class
                .iter()
                .map(|&row| subclass_size[row as usize])
                .max()
                .unwrap_or(1) as usize;
            removed += class.len() - max_sub;
        }
        removed as f64 / self.n_rows as f64
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "brute-force oracles count with hash containers; their iteration order never reaches an assertion"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_codes_strips_singletons() {
        //                rows: 0  1  2  3  4  5
        let p = Partition::from_codes(&[1, 0, 1, 2, 0, 3]);
        assert_eq!(p.n_rows(), 6);
        assert_eq!(p.class_count(), 2); // {0,2} and {1,4}
        assert_eq!(p.row_count(), 4);
        let mut sizes: Vec<usize> = p.classes().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn nulls_are_singletons() {
        let p = Partition::from_codes(&[NULL_CODE, NULL_CODE, 0, 0]);
        assert_eq!(p.class_count(), 1);
        assert_eq!(p.classes()[0], vec![2, 3]);
    }

    #[test]
    fn unique_column_gives_empty_partition() {
        let p = Partition::from_codes(&[0, 1, 2, 3]);
        assert!(p.is_unique());
        assert_eq!(p.key_error(), 0.0);
    }

    #[test]
    fn universal_partition() {
        let p = Partition::universal(4);
        assert_eq!(p.class_count(), 1);
        assert_eq!(p.row_count(), 4);
        // As a "key", the empty set over 4 rows needs 3 deletions.
        assert!((p.key_error() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn key_error_counts_excess_rows() {
        // codes: three rows of "a", two of "b", one of "c" → remove 2+1=3 of 6.
        let p = Partition::from_codes(&[0, 0, 0, 1, 1, 2]);
        assert!((p.key_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn product_equals_pairwise_grouping() {
        let x = [0u32, 0, 0, 1, 1, 2];
        let y = [0u32, 0, 1, 1, 1, 1];
        let px = Partition::from_codes(&x);
        let py = Partition::from_codes(&y);
        let pxy = px.product(&py);
        // Pairs: (0,0),(0,0),(0,1),(1,1),(1,1),(2,1) → classes {0,1}, {3,4}.
        assert_eq!(pxy.class_count(), 2);
        let mut classes: Vec<Vec<RowId>> = pxy.classes().to_vec();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        assert_eq!(classes, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn product_is_commutative_up_to_reordering() {
        let x = [0u32, 1, 0, 1, 0, 2, 2];
        let y = [0u32, 0, 0, 1, 1, 1, 0];
        let a = Partition::from_codes(&x).product(&Partition::from_codes(&y));
        let b = Partition::from_codes(&y).product(&Partition::from_codes(&x));
        let norm = |p: &Partition| {
            let mut cs: Vec<Vec<RowId>> = p.classes().to_vec();
            for c in &mut cs {
                c.sort_unstable();
            }
            cs.sort();
            cs
        };
        assert_eq!(norm(&a), norm(&b));
    }

    #[test]
    fn afd_error_exact_dependency_is_zero() {
        // X = Model, A = Make, Model → Make holds exactly.
        let model = [0u32, 0, 1, 1, 2];
        let make = [0u32, 0, 0, 0, 1];
        let px = Partition::from_codes(&model);
        let pxa = px.product(&Partition::from_codes(&make));
        assert_eq!(px.afd_error(&pxa), 0.0);
    }

    #[test]
    fn afd_error_counts_minority_rows() {
        // X groups rows {0,1,2,3}; A splits them 3-vs-1 → remove 1 of 4.
        let x = [0u32, 0, 0, 0];
        let a = [0u32, 0, 0, 1];
        let px = Partition::from_codes(&x);
        let pxa = px.product(&Partition::from_codes(&a));
        assert!((px.afd_error(&pxa) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn afd_error_with_all_singleton_subclasses() {
        // X groups all 4 rows; A makes every row distinct → keep 1, remove 3.
        let x = [0u32, 0, 0, 0];
        let a = [0u32, 1, 2, 3];
        let px = Partition::from_codes(&x);
        let pxa = px.product(&Partition::from_codes(&a));
        assert!((px.afd_error(&pxa) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn g1_key_error_counts_agreeing_pairs() {
        // codes: {0,0,0,1,1,2}: agreeing ordered pairs = 3·2 + 2·1 = 8 of 36.
        let p = Partition::from_codes(&[0, 0, 0, 1, 1, 2]);
        assert!((p.key_error_g1() - 8.0 / 36.0).abs() < 1e-12);
        // Unique column: no agreeing pairs.
        assert_eq!(Partition::from_codes(&[0, 1, 2]).key_error_g1(), 0.0);
    }

    #[test]
    fn g1_afd_error_counts_violating_pairs() {
        // X groups all 4 rows; A splits 3-1 → violating ordered pairs:
        // 16 − (9 + 1) = 6 of 16.
        let x = [0u32, 0, 0, 0];
        let a = [0u32, 0, 0, 1];
        let px = Partition::from_codes(&x);
        let pxa = px.product(&Partition::from_codes(&a));
        assert!((px.afd_error_g1(&pxa) - 6.0 / 16.0).abs() < 1e-12);
        // Exact FD → zero violating pairs.
        let model = [0u32, 0, 1, 1];
        let make = [0u32, 0, 1, 1];
        let pm = Partition::from_codes(&model);
        let pma = pm.product(&Partition::from_codes(&make));
        assert_eq!(pm.afd_error_g1(&pma), 0.0);
    }

    /// Brute-force g1 for X→A from raw code columns (ordered pairs).
    fn brute_g1(x: &[u32], a: &[u32]) -> f64 {
        let n = a.len();
        if n < 2 {
            return 0.0;
        }
        let mut violating = 0u64;
        for i in 0..n {
            for j in 0..n {
                if i != j
                    && x[i] != NULL_CODE
                    && x[i] == x[j]
                    && (a[i] != a[j] || a[i] == NULL_CODE)
                {
                    violating += 1;
                }
            }
        }
        violating as f64 / (n * n) as f64
    }

    /// Brute-force g3 for X→A from raw code columns.
    fn brute_g3(x: &[Vec<u32>], a: &[u32]) -> f64 {
        use std::collections::HashMap;
        let n = a.len();
        if n == 0 {
            return 0.0;
        }
        // group rows by X-projection (nulls distinct per row)
        let mut groups: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
        for row in 0..n {
            let mut key: Vec<u64> = Vec::with_capacity(x.len());
            let mut has_null = false;
            for col in x {
                if col[row] == NULL_CODE {
                    has_null = true;
                    break;
                }
                key.push(u64::from(col[row]));
            }
            if has_null {
                // unique key per row
                key = vec![u64::MAX, row as u64];
            }
            groups.entry(key).or_default().push(row);
        }
        let mut removed = 0usize;
        for rows in groups.values() {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for &row in rows {
                let v = if a[row] == NULL_CODE {
                    // nulls pairwise distinct
                    u64::from(u32::MAX) + 1 + row as u64
                } else {
                    u64::from(a[row])
                };
                *counts.entry(v).or_default() += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            removed += rows.len() - max;
        }
        removed as f64 / n as f64
    }

    proptest! {
        #[test]
        fn afd_error_matches_brute_force(
            rows in prop::collection::vec((0u32..4, 0u32..4, 0u32..3), 1..60)
        ) {
            let x1: Vec<u32> = rows.iter().map(|r| r.0).collect();
            let x2: Vec<u32> = rows.iter().map(|r| r.1).collect();
            let a: Vec<u32> = rows.iter().map(|r| r.2).collect();
            let px = Partition::from_codes(&x1).product(&Partition::from_codes(&x2));
            let pa = Partition::from_codes(&a);
            let pxa = px.product(&pa);
            let fast = px.afd_error(&pxa);
            let brute = brute_g3(&[x1, x2], &a);
            prop_assert!((fast - brute).abs() < 1e-9, "fast={fast} brute={brute}");
        }

        #[test]
        fn g1_afd_error_matches_brute_force(
            rows in prop::collection::vec((0u32..4, 0u32..3), 2..60)
        ) {
            let x: Vec<u32> = rows.iter().map(|r| r.0).collect();
            let a: Vec<u32> = rows.iter().map(|r| r.1).collect();
            let px = Partition::from_codes(&x);
            let pxa = px.product(&Partition::from_codes(&a));
            let fast = px.afd_error_g1(&pxa);
            let brute = brute_g1(&x, &a);
            prop_assert!((fast - brute).abs() < 1e-9, "fast={fast} brute={brute}");
        }

        #[test]
        fn g1_is_zero_iff_g3_is_zero(
            rows in prop::collection::vec((0u32..4, 0u32..3), 2..60)
        ) {
            let x: Vec<u32> = rows.iter().map(|r| r.0).collect();
            let a: Vec<u32> = rows.iter().map(|r| r.1).collect();
            let px = Partition::from_codes(&x);
            let pxa = px.product(&Partition::from_codes(&a));
            prop_assert_eq!(px.afd_error(&pxa) == 0.0, px.afd_error_g1(&pxa) == 0.0);
        }

        #[test]
        fn key_error_matches_distinct_count(codes in prop::collection::vec(0u32..6, 0..80)) {
            let p = Partition::from_codes(&codes);
            let distinct: std::collections::HashSet<u32> = codes.iter().copied().collect();
            let expected = if codes.is_empty() {
                0.0
            } else {
                (codes.len() - distinct.len()) as f64 / codes.len() as f64
            };
            prop_assert!((p.key_error() - expected).abs() < 1e-9);
        }

        #[test]
        fn product_refines_both_operands(
            rows in prop::collection::vec((0u32..3, 0u32..3), 2..50)
        ) {
            let x: Vec<u32> = rows.iter().map(|r| r.0).collect();
            let y: Vec<u32> = rows.iter().map(|r| r.1).collect();
            let px = Partition::from_codes(&x);
            let py = Partition::from_codes(&y);
            let pxy = px.product(&py);
            // every class of the product is contained in a class of each operand
            for class in pxy.classes() {
                let x0 = x[class[0] as usize];
                let y0 = y[class[0] as usize];
                for &row in class {
                    prop_assert_eq!(x[row as usize], x0);
                    prop_assert_eq!(y[row as usize], y0);
                }
            }
        }
    }
}
