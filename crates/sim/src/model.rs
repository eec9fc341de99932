use aimq_afd::{AttributeOrdering, BucketConfig, EncodedRelation};
use aimq_catalog::{AttrId, Domain, ImpreciseQuery, Schema, Tuple, Value};
use aimq_relation::{Dictionary, Relation};

use crate::supertuple::build_supertuples;
use crate::tuple_sim::numeric_similarity;

/// Configuration of the similarity miner.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Bucketing of numeric attributes when they appear as supertuple
    /// features. Sharing the spec with AFD mining keeps the two views of
    /// the data consistent.
    pub bucket: BucketConfig,
}

impl SimConfig {
    /// Default configuration for `schema`.
    pub fn for_schema(schema: &Schema) -> Self {
        SimConfig {
            bucket: BucketConfig::for_schema(schema),
        }
    }
}

/// Pairwise value-similarity matrix for one categorical attribute.
///
/// `sims` is a dense symmetric `n × n` matrix over the training
/// dictionary's codes with unit diagonal.
#[derive(Debug, Clone)]
pub struct ValueSimMatrix {
    dict: Dictionary,
    n: usize,
    sims: Vec<f64>,
}

impl ValueSimMatrix {
    /// Similarity between two value codes (0 for out-of-range codes).
    #[expect(
        clippy::indexing_slicing,
        reason = "a and b were just bounds-checked against n"
    )]
    pub fn similarity(&self, a: u32, b: u32) -> f64 {
        let (a, b) = (a as usize, b as usize);
        if a >= self.n || b >= self.n {
            return 0.0;
        }
        self.sims[a * self.n + b]
    }

    /// Similarity between two value strings. Identical strings are 1 even
    /// when unseen during training; unseen non-identical values score 0.
    pub fn similarity_by_name(&self, a: &str, b: &str) -> f64 {
        if a == b {
            return 1.0;
        }
        match (self.dict.code_of(a), self.dict.code_of(b)) {
            (Some(ca), Some(cb)) => self.similarity(ca, cb),
            _ => 0.0,
        }
    }

    /// The `k` most similar values to `value`, descending, self excluded.
    /// Ties break alphabetically for deterministic output.
    pub fn top_similar(&self, value: &str, k: usize) -> Vec<(String, f64)> {
        let Some(code) = self.dict.code_of(value) else {
            return Vec::new();
        };
        let mut scored: Vec<(String, f64)> = (0..self.n as u32)
            .filter(|&c| c != code)
            .filter_map(|c| {
                // Codes 0..n are dense in the training dictionary; a miss
                // would be a persistence bug and is skipped, not a panic.
                let name = self.dict.value_of(c)?;
                Some((name.to_owned(), self.similarity(code, c)))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Reassemble a matrix from raw parts (model persistence). `sims`
    /// must be a dense `dict.len() × dict.len()` row-major matrix.
    pub fn from_parts(dict: Dictionary, sims: Vec<f64>) -> Option<Self> {
        let n = dict.len();
        (sims.len() == n * n).then_some(ValueSimMatrix { dict, n, sims })
    }

    /// The raw row-major similarity matrix (for persistence).
    pub fn raw_sims(&self) -> &[f64] {
        &self.sims
    }

    /// The training dictionary backing this matrix.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// All values this matrix knows (training dictionary, code order).
    pub fn values(&self) -> &[String] {
        self.dict.values()
    }

    /// Number of distinct values covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the attribute had no values in the training sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The mined similarity model: one [`ValueSimMatrix`] per categorical
/// attribute plus the attribute-importance weights, together implementing
/// the paper's `VSim` and `Sim` functions (Section 5).
#[derive(Debug, Clone)]
pub struct SimilarityModel {
    schema: Schema,
    ordering: AttributeOrdering,
    matrices: Vec<Option<ValueSimMatrix>>,
    bucket_specs: Vec<Option<aimq_catalog::BucketSpec>>,
}

impl SimilarityModel {
    /// Mine value similarities from `relation`, weighting per-attribute
    /// bag similarities by `ordering`'s importance weights.
    ///
    /// Cost is `O(m · k² · b)` where `m` is the number of attributes, `k`
    /// the average number of distinct values per categorical attribute and
    /// `b` the bag size — the paper's claimed advantage over ROCK's
    /// `O(n³)` in the number of *tuples* (Section 6.1).
    pub fn build(relation: &Relation, ordering: &AttributeOrdering, config: &SimConfig) -> Self {
        let schema = relation.schema().clone();
        let enc = EncodedRelation::encode(relation, &config.bucket);

        let matrices = schema
            .attr_ids()
            .map(|attr| match schema.domain(attr) {
                Domain::Numeric => None,
                Domain::Categorical => {
                    Some(Self::build_matrix(relation, &enc, ordering, &schema, attr))
                }
            })
            .collect();
        let bucket_specs = schema.attr_ids().map(|a| enc.bucket_spec(a)).collect();

        SimilarityModel {
            schema,
            ordering: ordering.clone(),
            matrices,
            bucket_specs,
        }
    }

    /// Like [`SimilarityModel::build`], but mines the per-attribute
    /// matrices on scoped worker threads (one task per categorical
    /// attribute). Produces bit-identical results; worthwhile when the
    /// widest attribute's `k²` Jaccard pairs dominate training time.
    pub fn build_parallel(
        relation: &Relation,
        ordering: &AttributeOrdering,
        config: &SimConfig,
    ) -> Self {
        let schema = relation.schema().clone();
        let enc = EncodedRelation::encode(relation, &config.bucket);

        let matrices = std::thread::scope(|scope| {
            let handles: Vec<_> = schema
                .attr_ids()
                .map(|attr| match schema.domain(attr) {
                    Domain::Numeric => None,
                    Domain::Categorical => {
                        let (schema, enc) = (&schema, &enc);
                        Some(scope.spawn(move || {
                            Self::build_matrix(relation, enc, ordering, schema, attr)
                        }))
                    }
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.map(|handle| match handle.join() {
                        Ok(matrix) => matrix,
                        // A worker panic is a bug in build_matrix;
                        // surface it on the caller's thread unchanged.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                })
                .collect::<Vec<Option<ValueSimMatrix>>>()
        });
        let bucket_specs = schema.attr_ids().map(|a| enc.bucket_spec(a)).collect();

        SimilarityModel {
            schema,
            ordering: ordering.clone(),
            matrices,
            bucket_specs,
        }
    }

    /// The bucket spec the model applied to a numeric attribute during
    /// mining (`None` for categorical attributes). The query engine uses
    /// it to turn numeric `like` bindings into bucket-band selections —
    /// the form-interface analogue of a price-range select box.
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized per-attribute table; AttrId is in-range"
    )]
    pub fn bucket_spec(&self, attr: AttrId) -> Option<aimq_catalog::BucketSpec> {
        self.bucket_specs[attr.index()]
    }

    /// Reassemble a model from raw parts (model persistence). `matrices`
    /// and `bucket_specs` must be indexed by schema attribute position.
    pub fn from_parts(
        schema: Schema,
        ordering: AttributeOrdering,
        matrices: Vec<Option<ValueSimMatrix>>,
        bucket_specs: Vec<Option<aimq_catalog::BucketSpec>>,
    ) -> Option<Self> {
        (matrices.len() == schema.arity() && bucket_specs.len() == schema.arity()).then_some(
            SimilarityModel {
                schema,
                ordering,
                matrices,
                bucket_specs,
            },
        )
    }

    fn build_matrix(
        relation: &Relation,
        enc: &EncodedRelation,
        ordering: &AttributeOrdering,
        schema: &Schema,
        attr: AttrId,
    ) -> ValueSimMatrix {
        let Some(dict) = relation.column(attr).dictionary().cloned() else {
            // Only categorical attributes reach build_matrix, and their
            // columns always carry a dictionary; should that invariant
            // ever break, an empty matrix (similarity 0 everywhere)
            // degrades gracefully instead of panicking.
            return ValueSimMatrix {
                dict: Dictionary::new(),
                n: 0,
                sims: Vec::new(),
            };
        };
        let n = dict.len();
        let supertuples = build_supertuples(enc, attr);
        debug_assert_eq!(supertuples.len(), n);

        // Importance weights over the *other* attributes, normalized so
        // Σ Wimp = 1 within each VSim computation.
        let others: Vec<AttrId> = schema.attr_ids().filter(|&a| a != attr).collect();
        let weights = ordering.normalized_importance(&others);

        let mut sims = vec![0.0; n * n];
        for i in 0..n {
            #[expect(
                clippy::indexing_slicing,
                reason = "n-by-n matrix; i and j are bounded by the build loops"
            )]
            let diagonal = &mut sims[i * n + i];
            *diagonal = 1.0;
            for j in (i + 1)..n {
                let mut v = 0.0;
                for (&other, &w) in others.iter().zip(&weights) {
                    if w == 0.0 {
                        continue;
                    }
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "n-by-n matrix; i and j are bounded by the build loops"
                    )]
                    let a = supertuples[i].bag(other);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "n-by-n matrix; i and j are bounded by the build loops"
                    )]
                    let b = supertuples[j].bag(other);
                    v += w * a.jaccard(b);
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "n-by-n matrix; i and j are bounded by the build loops"
                )]
                let upper = &mut sims[i * n + j];
                *upper = v;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "n-by-n matrix; i and j are bounded by the build loops"
                )]
                let lower = &mut sims[j * n + i];
                *lower = v;
            }
        }

        ValueSimMatrix { dict, n, sims }
    }

    /// The schema the model was mined over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The attribute ordering (and thus `Wimp` weights) baked into the
    /// model.
    pub fn ordering(&self) -> &AttributeOrdering {
        &self.ordering
    }

    /// The value-similarity matrix of a categorical attribute.
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized per-attribute table; AttrId is in-range"
    )]
    pub fn matrix(&self, attr: AttrId) -> Option<&ValueSimMatrix> {
        self.matrices[attr.index()].as_ref()
    }

    /// `VSim` between two values of categorical attribute `attr`.
    pub fn value_similarity(&self, attr: AttrId, a: &str, b: &str) -> f64 {
        self.matrix(attr)
            .map_or(0.0, |m| m.similarity_by_name(a, b))
    }

    /// Per-attribute similarity between a query binding and a tuple value:
    /// `VSim` for categorical attributes, normalized L1 for numeric ones.
    /// Null tuple values score 0.
    fn attribute_similarity(&self, attr: AttrId, qv: &Value, tv: &Value) -> f64 {
        match (qv, tv) {
            (Value::Cat(a), Value::Cat(b)) => {
                if a == b {
                    1.0
                } else {
                    self.value_similarity(attr, a, b)
                }
            }
            (Value::Num(q), Value::Num(t)) => numeric_similarity(*q, *t),
            _ => 0.0,
        }
    }

    /// Per-attribute similarity components of `Sim(Q, t)`, unweighted:
    /// one `(attribute, similarity)` pair per bound query attribute.
    ///
    /// Exposed so weight-tuning layers (e.g. the relevance-feedback tuner
    /// in the `aimq` crate, implementing the paper's Section 7 plan to
    /// "use relevance feedback to tune the importance weights") can apply
    /// their own weights without rebuilding the mined model.
    pub fn attribute_similarities(
        &self,
        query: &ImpreciseQuery,
        tuple: &Tuple,
    ) -> Vec<(AttrId, f64)> {
        query
            .bindings()
            .iter()
            .map(|&(attr, ref qv)| (attr, self.attribute_similarity(attr, qv, tuple.value(attr))))
            .collect()
    }

    /// The paper's `Sim(Q, t)`: importance-weighted sum of per-attribute
    /// similarities over the query's bound attributes, with weights
    /// renormalized to sum to 1.
    pub fn query_similarity(&self, query: &ImpreciseQuery, tuple: &Tuple) -> f64 {
        let attrs = query.bound_attrs();
        let weights = self.ordering.normalized_importance(&attrs);
        query
            .bindings()
            .iter()
            .zip(&weights)
            .map(|(&(attr, ref qv), &w)| w * self.attribute_similarity(attr, qv, tuple.value(attr)))
            .sum()
    }

    /// `Sim` between two tuples, treating `base` as a fully bound query
    /// over `attrs` — the comparison Algorithm 1 performs between each
    /// base-set tuple and each relaxation result (step 7).
    pub fn tuple_similarity(&self, base: &Tuple, candidate: &Tuple, attrs: &[AttrId]) -> f64 {
        let bound: Vec<AttrId> = attrs
            .iter()
            .copied()
            .filter(|&a| !base.value(a).is_null())
            .collect();
        let weights = self.ordering.normalized_importance(&bound);
        bound
            .iter()
            .zip(&weights)
            .map(|(&attr, &w)| {
                w * self.attribute_similarity(attr, base.value(attr), candidate.value(attr))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_afd::{BucketConfig, MinedDependencies, TaneConfig};
    use aimq_catalog::BucketSpec;

    /// CarDB-like corpus engineered so that Camry and Accord co-occur
    /// with similar price buckets / colors, while F150 is different.
    fn training_relation() -> Relation {
        let schema = Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Price")
            .categorical("Color")
            .build()
            .unwrap();
        let rows: Vec<(&str, &str, f64, &str)> = vec![
            ("Toyota", "Camry", 9000.0, "White"),
            ("Toyota", "Camry", 9500.0, "Black"),
            ("Toyota", "Camry", 8700.0, "White"),
            ("Honda", "Accord", 9200.0, "White"),
            ("Honda", "Accord", 9100.0, "Black"),
            ("Honda", "Accord", 8800.0, "White"),
            ("Ford", "F150", 26000.0, "Red"),
            ("Ford", "F150", 27000.0, "Black"),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(mk, md, p, c)| {
                Tuple::new(
                    &schema,
                    vec![Value::cat(mk), Value::cat(md), Value::num(p), Value::cat(c)],
                )
                .unwrap()
            })
            .collect();
        Relation::from_tuples(schema, &tuples).unwrap()
    }

    fn model() -> SimilarityModel {
        let rel = training_relation();
        let schema = rel.schema().clone();
        let bucket =
            BucketConfig::for_schema(&schema).with_spec(AttrId(2), BucketSpec::width(5000.0));
        let enc = EncodedRelation::encode(&rel, &bucket);
        let mined = MinedDependencies::mine(&enc, &TaneConfig::default());
        let ordering = AttributeOrdering::derive(&schema, &mined).unwrap();
        SimilarityModel::build(&rel, &ordering, &SimConfig { bucket })
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let rel = training_relation();
        let schema = rel.schema().clone();
        let bucket =
            BucketConfig::for_schema(&schema).with_spec(AttrId(2), BucketSpec::width(5000.0));
        let enc = EncodedRelation::encode(&rel, &bucket);
        let mined = MinedDependencies::mine(&enc, &TaneConfig::default());
        let ordering = AttributeOrdering::derive(&schema, &mined).unwrap();
        let sequential = SimilarityModel::build(
            &rel,
            &ordering,
            &SimConfig {
                bucket: bucket.clone(),
            },
        );
        let parallel = SimilarityModel::build_parallel(&rel, &ordering, &SimConfig { bucket });
        for attr in schema.attr_ids() {
            match (sequential.matrix(attr), parallel.matrix(attr)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.values(), b.values());
                    assert_eq!(a.raw_sims(), b.raw_sims());
                }
                other => panic!("matrix presence mismatch: {other:?}"),
            }
            assert_eq!(sequential.bucket_spec(attr), parallel.bucket_spec(attr));
        }
    }

    #[test]
    fn similar_models_score_higher_than_dissimilar() {
        let m = model();
        let camry_accord = m.value_similarity(AttrId(1), "Camry", "Accord");
        let camry_f150 = m.value_similarity(AttrId(1), "Camry", "F150");
        assert!(
            camry_accord > camry_f150,
            "Camry~Accord={camry_accord} should beat Camry~F150={camry_f150}"
        );
        assert!(camry_accord > 0.0);
    }

    #[test]
    fn vsim_is_symmetric_and_unit_diagonal() {
        let m = model();
        let ab = m.value_similarity(AttrId(0), "Toyota", "Honda");
        let ba = m.value_similarity(AttrId(0), "Honda", "Toyota");
        assert!((ab - ba).abs() < 1e-15);
        assert_eq!(m.value_similarity(AttrId(0), "Toyota", "Toyota"), 1.0);
    }

    #[test]
    fn unknown_values_score_zero_unless_identical() {
        let m = model();
        assert_eq!(m.value_similarity(AttrId(0), "Lada", "Toyota"), 0.0);
        assert_eq!(m.value_similarity(AttrId(0), "Lada", "Lada"), 1.0);
    }

    #[test]
    fn numeric_attribute_has_no_matrix() {
        let m = model();
        assert!(m.matrix(AttrId(2)).is_none());
        assert!(m.matrix(AttrId(1)).is_some());
    }

    #[test]
    fn top_similar_is_sorted_and_excludes_self() {
        let m = model();
        let top = m.matrix(AttrId(1)).unwrap().top_similar("Camry", 2);
        assert_eq!(top.len(), 2);
        assert!(top.iter().all(|(v, _)| v != "Camry"));
        assert!(top[0].1 >= top[1].1);
        assert_eq!(top[0].0, "Accord");
        // Unknown value yields empty list.
        assert!(m
            .matrix(AttrId(1))
            .unwrap()
            .top_similar("Vega", 3)
            .is_empty());
    }

    #[test]
    fn query_similarity_weights_bound_attributes() {
        let m = model();
        let schema = m.schema().clone();
        let q = ImpreciseQuery::builder(&schema)
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .like("Price", Value::num(9000.0))
            .unwrap()
            .build()
            .unwrap();
        let exact = Tuple::new(
            &schema,
            vec![
                Value::cat("Toyota"),
                Value::cat("Camry"),
                Value::num(9000.0),
                Value::cat("White"),
            ],
        )
        .unwrap();
        assert!((m.query_similarity(&q, &exact) - 1.0).abs() < 1e-12);

        let near = Tuple::new(
            &schema,
            vec![
                Value::cat("Honda"),
                Value::cat("Accord"),
                Value::num(9200.0),
                Value::cat("White"),
            ],
        )
        .unwrap();
        let far = Tuple::new(
            &schema,
            vec![
                Value::cat("Ford"),
                Value::cat("F150"),
                Value::num(26000.0),
                Value::cat("Red"),
            ],
        )
        .unwrap();
        let s_near = m.query_similarity(&q, &near);
        let s_far = m.query_similarity(&q, &far);
        assert!(s_near > s_far);
        assert!((0.0..=1.0).contains(&s_near));
        assert!((0.0..=1.0).contains(&s_far));
    }

    #[test]
    fn tuple_similarity_self_is_one() {
        let m = model();
        let schema = m.schema().clone();
        let t = Tuple::new(
            &schema,
            vec![
                Value::cat("Toyota"),
                Value::cat("Camry"),
                Value::num(9000.0),
                Value::cat("White"),
            ],
        )
        .unwrap();
        let attrs: Vec<AttrId> = schema.attr_ids().collect();
        assert!((m.tuple_similarity(&t, &t, &attrs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tuple_similarity_ignores_null_base_attrs() {
        let m = model();
        let schema = m.schema().clone();
        let base = Tuple::new(
            &schema,
            vec![Value::Null, Value::cat("Camry"), Value::Null, Value::Null],
        )
        .unwrap();
        let other = Tuple::new(
            &schema,
            vec![
                Value::cat("Honda"),
                Value::cat("Camry"),
                Value::num(1.0),
                Value::cat("Red"),
            ],
        )
        .unwrap();
        let attrs: Vec<AttrId> = schema.attr_ids().collect();
        // Only Model is bound on the base side, and it matches exactly.
        assert!((m.tuple_similarity(&base, &other, &attrs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn null_candidate_values_score_zero() {
        let m = model();
        let schema = m.schema().clone();
        let q = ImpreciseQuery::builder(&schema)
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .build()
            .unwrap();
        let t = Tuple::new(&schema, vec![Value::Null; 4]).unwrap();
        assert_eq!(m.query_similarity(&q, &t), 0.0);
    }
}
