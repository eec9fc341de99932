use aimq_afd::EncodedRelation;
use aimq_catalog::AttrId;
use aimq_relation::{RowId, NULL_CODE};

/// Tuples viewed as ROCK data points: each point is the set of its
/// attribute–value pairs (categorical dictionary codes, bucketized numeric
/// codes — the same encoding TANE mines over).
///
/// Because every tuple binds at most one value per attribute, the Jaccard
/// similarity of two points reduces to counting per-attribute agreement:
/// `sim = |A∩B| / (|A| + |B| − |A∩B|)` where `|A∩B|` is the number of
/// attributes on which the two rows hold the same non-null code.
#[derive(Debug, Clone)]
pub struct PointSet {
    /// Row-major `n × m` code matrix.
    codes: Vec<u32>,
    n: usize,
    m: usize,
}

impl PointSet {
    /// Build from a mining encoding.
    pub fn from_encoded(enc: &EncodedRelation) -> Self {
        let n = enc.n_rows();
        let m = enc.n_attrs();
        let mut codes = vec![NULL_CODE; n * m];
        for a in 0..m {
            let col = enc.codes(AttrId(a));
            #[expect(
                clippy::indexing_slicing,
                reason = "row-major matrix: row < n and attr < m by the build loops"
            )]
            for (row, &c) in col.iter().enumerate() {
                codes[row * m + a] = c;
            }
        }
        PointSet { codes, n, m }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of attributes per point.
    pub fn arity(&self) -> usize {
        self.m
    }

    /// The code row of point `p`.
    #[expect(
        clippy::indexing_slicing,
        reason = "row-major matrix: row < n and attr < m by the build loops"
    )]
    pub fn point(&self, p: RowId) -> &[u32] {
        let p = p as usize;
        &self.codes[p * self.m..(p + 1) * self.m]
    }

    /// Jaccard similarity between points `a` and `b` (set semantics over
    /// AV-pairs; nulls belong to neither set).
    pub fn sim(&self, a: RowId, b: RowId) -> f64 {
        sim_rows(self.point(a), self.point(b))
    }
}

/// Jaccard similarity of two aligned code rows.
pub(crate) fn sim_rows(a: &[u32], b: &[u32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut inter = 0usize;
    let mut size_a = 0usize;
    let mut size_b = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let xa = x != NULL_CODE;
        let yb = y != NULL_CODE;
        size_a += usize::from(xa);
        size_b += usize::from(yb);
        inter += usize::from(xa && yb && x == y);
    }
    let union = size_a + size_b - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_afd::BucketConfig;
    use aimq_catalog::{Schema, Tuple, Value};
    use aimq_relation::Relation;

    fn points() -> PointSet {
        let schema = Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .categorical("C")
            .build()
            .unwrap();
        let rows = [
            ("x", "y", "z"),
            ("x", "y", "w"),
            ("p", "q", "r"),
            ("x", "q", "z"),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(a, b, c)| {
                Tuple::new(&schema, vec![Value::cat(a), Value::cat(b), Value::cat(c)]).unwrap()
            })
            .collect();
        let rel = Relation::from_tuples(schema.clone(), &tuples).unwrap();
        PointSet::from_encoded(&aimq_afd::EncodedRelation::encode(
            &rel,
            &BucketConfig::for_schema(&schema),
        ))
    }

    #[test]
    fn self_similarity_is_one() {
        let ps = points();
        for p in 0..ps.len() as RowId {
            assert_eq!(ps.sim(p, p), 1.0);
        }
    }

    #[test]
    fn jaccard_counts_agreeing_attributes() {
        let ps = points();
        // rows 0 and 1 agree on A, B (2 of 3): sim = 2/(3+3-2) = 0.5.
        assert!((ps.sim(0, 1) - 0.5).abs() < 1e-12);
        // rows 0 and 2 agree on nothing.
        assert_eq!(ps.sim(0, 2), 0.0);
        // rows 0 and 3 agree on A, C: 2/4 = 0.5.
        assert!((ps.sim(0, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let ps = points();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(ps.sim(a, b), ps.sim(b, a));
            }
        }
    }

    #[test]
    fn nulls_shrink_the_sets() {
        let schema = Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .build()
            .unwrap();
        let t1 = Tuple::new(&schema, vec![Value::cat("x"), Value::Null]).unwrap();
        let t2 = Tuple::new(&schema, vec![Value::cat("x"), Value::cat("y")]).unwrap();
        let rel = Relation::from_tuples(schema.clone(), &[t1, t2]).unwrap();
        let ps = PointSet::from_encoded(&aimq_afd::EncodedRelation::encode(
            &rel,
            &BucketConfig::for_schema(&schema),
        ));
        // |A| = 1, |B| = 2, inter = 1 → 1/2.
        assert!((ps.sim(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_null_points_have_zero_similarity() {
        let schema = Schema::builder("R").categorical("A").build().unwrap();
        let t = Tuple::new(&schema, vec![Value::Null]).unwrap();
        let rel = Relation::from_tuples(schema.clone(), &[t.clone(), t]).unwrap();
        let ps = PointSet::from_encoded(&aimq_afd::EncodedRelation::encode(
            &rel,
            &BucketConfig::for_schema(&schema),
        ));
        assert_eq!(ps.sim(0, 1), 0.0);
    }
}
