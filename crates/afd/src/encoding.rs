use aimq_catalog::{AttrId, BucketSpec, Domain, Schema};
use aimq_relation::{Relation, NULL_CODE};

/// Per-attribute bucketing policy for mining.
///
/// Categorical attributes are never bucketized (their dictionary codes are
/// used as-is). Numeric attributes are mapped to bucket indices: either via
/// an explicit [`BucketSpec`] or, by default, into `default_buckets`
/// equal-width buckets spanning the attribute's observed range.
#[derive(Debug, Clone)]
pub struct BucketConfig {
    specs: Vec<Option<BucketSpec>>,
    default_buckets: usize,
}

impl BucketConfig {
    /// Default policy for `schema`: 20 equal-width buckets per numeric
    /// attribute, derived from the data at encoding time.
    pub fn for_schema(schema: &Schema) -> Self {
        BucketConfig {
            specs: vec![None; schema.arity()],
            default_buckets: 20,
        }
    }

    /// Override the spec for one attribute.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized table; AttrId is minted by this schema"
    )]
    pub fn with_spec(mut self, attr: AttrId, spec: BucketSpec) -> Self {
        self.specs[attr.index()] = Some(spec);
        self
    }

    /// Change the number of default equal-width buckets.
    #[must_use]
    pub fn with_default_buckets(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one bucket");
        self.default_buckets = n;
        self
    }

    /// The explicit spec for `attr`, if configured.
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized table; AttrId is minted by this schema"
    )]
    pub fn spec(&self, attr: AttrId) -> Option<BucketSpec> {
        self.specs[attr.index()]
    }
}

/// A relation re-encoded for mining: one dense `u32` code per (row,
/// attribute), with `NULL_CODE` marking nulls.
///
/// * categorical attribute → dictionary code (already dense);
/// * numeric attribute → bucket index (dense after remapping).
///
/// TANE partitions, and only they, consume this encoding; the similarity
/// miner re-derives its own bags because it needs bucket *labels* too.
#[derive(Debug, Clone)]
pub struct EncodedRelation {
    n_rows: usize,
    columns: Vec<Vec<u32>>,
    /// Number of distinct codes per column (excluding nulls).
    cardinalities: Vec<usize>,
    /// The bucket spec actually used per numeric attribute.
    used_specs: Vec<Option<BucketSpec>>,
}

impl EncodedRelation {
    /// Encode `relation` under `config`.
    pub fn encode(relation: &Relation, config: &BucketConfig) -> Self {
        let schema = relation.schema();
        let n_rows = relation.len();
        let mut columns = Vec::with_capacity(schema.arity());
        let mut cardinalities = Vec::with_capacity(schema.arity());
        let mut used_specs = vec![None; schema.arity()];

        for attr in schema.attr_ids() {
            let col = relation.column(attr);
            match schema.domain(attr) {
                Domain::Categorical => {
                    #[expect(
                        clippy::expect_used,
                        reason = "Relation construction pairs Categorical schema domains with dictionary-encoded columns"
                    )]
                    let codes = col.codes().expect("categorical column").to_vec();
                    let card = col.dictionary().map_or(0, aimq_relation::Dictionary::len);
                    columns.push(codes);
                    cardinalities.push(card);
                }
                Domain::Numeric => {
                    #[expect(
                        clippy::expect_used,
                        reason = "Relation construction pairs Numeric schema domains with f64 columns"
                    )]
                    let values = col.numbers().expect("numeric column");
                    let spec = config
                        .spec(attr)
                        .unwrap_or_else(|| default_spec(values, config.default_buckets));
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "schema-sized table; AttrId is minted by this schema"
                    )]
                    let slot = &mut used_specs[attr.index()];
                    *slot = Some(spec);
                    // Bucket, then re-map the sparse bucket indices to
                    // dense codes so partitions can use Vec-based tables.
                    // Codes are assigned in first-appearance row order; a
                    // BTreeMap keeps even the map's own iteration
                    // deterministic for the determinism lint.
                    let mut remap = std::collections::BTreeMap::new();
                    let codes: Vec<u32> = values
                        .iter()
                        .map(|&v| {
                            if v.is_nan() {
                                NULL_CODE
                            } else {
                                let bucket = spec.bucket_of(v);
                                let next = remap.len() as u32;
                                *remap.entry(bucket).or_insert(next)
                            }
                        })
                        .collect();
                    columns.push(codes);
                    cardinalities.push(remap.len());
                }
            }
        }

        EncodedRelation {
            n_rows,
            columns,
            cardinalities,
            used_specs,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// The dense code vector for `attr` (`NULL_CODE` marks nulls).
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized table; AttrId is minted by this schema"
    )]
    pub fn codes(&self, attr: AttrId) -> &[u32] {
        &self.columns[attr.index()]
    }

    /// Distinct non-null codes in `attr`'s column.
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized table; AttrId is minted by this schema"
    )]
    pub fn cardinality(&self, attr: AttrId) -> usize {
        self.cardinalities[attr.index()]
    }

    /// The bucket spec applied to a numeric attribute (None for
    /// categorical attributes).
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized table; AttrId is minted by this schema"
    )]
    pub fn bucket_spec(&self, attr: AttrId) -> Option<BucketSpec> {
        self.used_specs[attr.index()]
    }
}

/// Equal-width spec over the observed (finite) range of `values`.
fn default_spec(values: &[f64], buckets: usize) -> BucketSpec {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || lo == hi {
        // Degenerate column: single value or all null. One giant bucket.
        return BucketSpec::new(if lo.is_finite() { lo } else { 0.0 }, 1.0);
    }
    // Widen slightly so the max lands inside the last bucket, not beyond.
    let width = (hi - lo) / buckets as f64 * (1.0 + 1e-9);
    BucketSpec::new(lo, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::{Tuple, Value};

    fn relation() -> Relation {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = [
            ("Toyota", 1000.0),
            ("Honda", 5500.0),
            ("Toyota", 1200.0),
            ("Ford", 9900.0),
        ]
        .iter()
        .map(|&(m, p)| Tuple::new(&schema, vec![Value::cat(m), Value::num(p)]).unwrap())
        .collect();
        Relation::from_tuples(schema, &tuples).unwrap()
    }

    #[test]
    fn categorical_codes_pass_through() {
        let r = relation();
        let enc = EncodedRelation::encode(&r, &BucketConfig::for_schema(r.schema()));
        assert_eq!(enc.n_rows(), 4);
        assert_eq!(enc.codes(AttrId(0))[0], enc.codes(AttrId(0))[2]); // Toyota twice
        assert_ne!(enc.codes(AttrId(0))[0], enc.codes(AttrId(0))[1]);
        assert_eq!(enc.cardinality(AttrId(0)), 3);
        assert!(enc.bucket_spec(AttrId(0)).is_none());
    }

    #[test]
    fn numeric_bucketing_with_explicit_spec() {
        let r = relation();
        let cfg =
            BucketConfig::for_schema(r.schema()).with_spec(AttrId(1), BucketSpec::width(5000.0));
        let enc = EncodedRelation::encode(&r, &cfg);
        let codes = enc.codes(AttrId(1));
        // 1000 and 1200 share bucket 0; 5500 and 9900 share bucket 1.
        assert_eq!(codes[0], codes[2]);
        assert_eq!(codes[1], codes[3]);
        assert_ne!(codes[0], codes[1]);
        assert_eq!(enc.cardinality(AttrId(1)), 2);
        assert_eq!(enc.bucket_spec(AttrId(1)), Some(BucketSpec::width(5000.0)));
    }

    #[test]
    fn default_equal_width_buckets_cover_range() {
        let r = relation();
        let cfg = BucketConfig::for_schema(r.schema()).with_default_buckets(2);
        let enc = EncodedRelation::encode(&r, &cfg);
        let codes = enc.codes(AttrId(1));
        // Range 1000..9900 split in 2: {1000, 1200, 5500-?}. Width ~4450:
        // bucket(1000)=0, bucket(1200)=0, bucket(5500)=1, bucket(9900)=1.
        assert_eq!(codes[0], codes[2]);
        assert_eq!(codes[1], codes[3]);
        assert_ne!(codes[0], codes[1]);
    }

    #[test]
    fn nulls_become_null_code() {
        let schema = Schema::builder("R")
            .categorical("A")
            .numeric("B")
            .build()
            .unwrap();
        let t1 = Tuple::new(&schema, vec![Value::Null, Value::num(1.0)]).unwrap();
        let t2 = Tuple::new(&schema, vec![Value::cat("x"), Value::Null]).unwrap();
        let r = Relation::from_tuples(schema, &[t1, t2]).unwrap();
        let enc = EncodedRelation::encode(&r, &BucketConfig::for_schema(r.schema()));
        assert_eq!(enc.codes(AttrId(0))[0], NULL_CODE);
        assert_eq!(enc.codes(AttrId(1))[1], NULL_CODE);
    }

    #[test]
    fn constant_numeric_column_is_single_bucket() {
        let schema = Schema::builder("R").numeric("B").build().unwrap();
        let tuples: Vec<Tuple> = (0..3)
            .map(|_| Tuple::new(&schema, vec![Value::num(7.0)]).unwrap())
            .collect();
        let r = Relation::from_tuples(schema, &tuples).unwrap();
        let enc = EncodedRelation::encode(&r, &BucketConfig::for_schema(r.schema()));
        assert_eq!(enc.cardinality(AttrId(0)), 1);
        assert!(enc.codes(AttrId(0)).iter().all(|&c| c == 0));
    }
}
