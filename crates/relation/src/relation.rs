use aimq_catalog::{AttrId, CatalogError, Domain, Result, Schema, Tuple, Value};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Column, Dictionary, NULL_CODE};

/// Index of a tuple within a [`Relation`].
pub type RowId = u32;

/// An immutable, dictionary-encoded, columnar relation instance.
///
/// This is the "owned data" view used by the dataset generators, the mined
/// sample, and the evaluation harness. The AIMQ query engine itself never
/// touches a `Relation` directly — it goes through the `WebDatabase`
/// facade in `aimq-storage`, which enforces the boolean query model and
/// meters access.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    /// Inverted index per attribute: for categorical attributes,
    /// `index[attr][code]` lists the rows holding that code. Numeric
    /// attributes have an empty outer entry.
    inverted: Vec<Vec<Vec<RowId>>>,
    /// Sorted index per attribute: for numeric attributes, `(value, row)`
    /// pairs in ascending value order, enabling binary-searched range
    /// predicates. Categorical attributes have an empty entry.
    sorted_numeric: Vec<Vec<(f64, RowId)>>,
}

impl Relation {
    /// Start building a relation for `schema`.
    pub fn builder(schema: Schema) -> RelationBuilder {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| match a.domain() {
                Domain::Categorical => Column::Categorical {
                    codes: Vec::new(),
                    dict: Dictionary::new(),
                },
                Domain::Numeric => Column::Numeric(Vec::new()),
            })
            .collect();
        RelationBuilder { schema, columns }
    }

    /// Convenience: build a relation directly from tuples.
    pub fn from_tuples(schema: Schema, tuples: &[Tuple]) -> Result<Self> {
        let mut b = Relation::builder(schema);
        for t in tuples {
            b.push(t)?;
        }
        Ok(b.build())
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column storing attribute `attr`.
    #[expect(
        clippy::indexing_slicing,
        reason = "columns is arity-sized; AttrId and rows are minted by this relation"
    )]
    pub fn column(&self, attr: AttrId) -> &Column {
        &self.columns[attr.index()]
    }

    /// Decode row `row` into an owned [`Tuple`].
    pub fn tuple(&self, row: RowId) -> Tuple {
        let values = self.columns.iter().map(|c| c.value(row as usize)).collect();
        Tuple::from_values_unchecked(values)
    }

    /// Decode the value at (`row`, `attr`).
    #[expect(
        clippy::indexing_slicing,
        reason = "columns is arity-sized; AttrId and rows are minted by this relation"
    )]
    pub fn value(&self, row: RowId, attr: AttrId) -> Value {
        self.columns[attr.index()].value(row as usize)
    }

    /// Dictionary code at (`row`, `attr`) for categorical attributes.
    #[expect(
        clippy::indexing_slicing,
        reason = "columns is arity-sized; AttrId and rows are minted by this relation"
    )]
    pub fn code(&self, row: RowId, attr: AttrId) -> Option<u32> {
        self.columns[attr.index()].code(row as usize)
    }

    /// Iterate over all row ids.
    pub fn rows(&self) -> impl Iterator<Item = RowId> {
        0..self.len() as RowId
    }

    /// Iterate over all tuples (decoding each row).
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.rows().map(|r| self.tuple(r))
    }

    /// Rows whose categorical attribute `attr` holds `code`, via the
    /// inverted index. Empty for unknown codes or numeric attributes.
    pub fn rows_with_code(&self, attr: AttrId, code: u32) -> &[RowId] {
        self.inverted
            .get(attr.index())
            .and_then(|idx| idx.get(code as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// Rows whose categorical attribute `attr` holds the string `value`.
    pub fn rows_with_value(&self, attr: AttrId, value: &str) -> &[RowId] {
        match self
            .column(attr)
            .dictionary()
            .and_then(|d| d.code_of(value))
        {
            Some(code) => self.rows_with_code(attr, code),
            None => &[],
        }
    }

    /// The full value-ascending `(value, row)` index of numeric attribute
    /// `attr` (NaN/null rows excluded at build time). Empty for
    /// categorical or out-of-range attributes.
    pub fn numeric_sorted(&self, attr: AttrId) -> &[(f64, RowId)] {
        self.sorted_numeric
            .get(attr.index())
            .map_or(&[], Vec::as_slice)
    }

    /// A uniform random sample of `n` rows *without replacement* (Section
    /// 6.2: "Using simple random sampling without replacement we
    /// constructed three subsets of CarDB"). Returns a new `Relation` with
    /// freshly built dictionaries and indexes. If `n >= len`, clones the
    /// relation's rows in shuffled order.
    pub fn random_sample(&self, n: usize, seed: u64) -> Relation {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rows: Vec<RowId> = self.rows().collect();
        rows.shuffle(&mut rng);
        rows.truncate(n.min(rows.len()));
        self.project_rows(&rows)
    }

    /// Build a new relation containing exactly `rows` (in the given order).
    pub fn project_rows(&self, rows: &[RowId]) -> Relation {
        let mut b = Relation::builder(self.schema.clone());
        for &r in rows {
            // Tuples drawn from `self` validate against `self.schema` by
            // construction; a failed push is impossible, so the row is
            // flagged in debug builds rather than panicking in release.
            let pushed = b.push(&self.tuple(r));
            debug_assert!(pushed.is_ok(), "projecting own tuple failed: {pushed:?}");
        }
        b.build()
    }
}

/// Builder accumulating tuples into dictionary-encoded columns.
#[derive(Debug)]
pub struct RelationBuilder {
    schema: Schema,
    columns: Vec<Column>,
}

impl RelationBuilder {
    /// Append one tuple, validating it against the schema.
    pub fn push(&mut self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(CatalogError::ArityMismatch {
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        // Validate all values before mutating any column so a bad tuple
        // cannot leave the builder with ragged columns.
        for (i, v) in tuple.values().iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "i < arity by the enumerate over a validated tuple"
            )]
            let attr = &self.schema.attributes()[i];
            let ok = matches!(
                (attr.domain(), v),
                (_, Value::Null)
                    | (Domain::Categorical, Value::Cat(_))
                    | (Domain::Numeric, Value::Num(_))
            );
            if !ok {
                return Err(CatalogError::DomainMismatch {
                    attribute: attr.name().to_owned(),
                    expected: attr.domain().name(),
                    actual: v.type_name(),
                });
            }
        }
        for (i, v) in tuple.values().iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "i < arity by the enumerate over a validated tuple"
            )]
            let column = &mut self.columns[i];
            match (column, v) {
                (Column::Categorical { codes, dict }, Value::Cat(s)) => {
                    codes.push(dict.intern(s));
                }
                (Column::Categorical { codes, .. }, Value::Null) => codes.push(NULL_CODE),
                (Column::Numeric(vs), Value::Num(n)) => vs.push(*n),
                (Column::Numeric(vs), Value::Null) => vs.push(f64::NAN),
                // Excluded by the validation loop above; propagated as an
                // error (not a panic) to keep storage panic-free.
                (col, v) => {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i < arity by the enumerate over a validated tuple"
                    )]
                    let attr = &self.schema.attributes()[i];
                    debug_assert!(false, "validated tuple mismatched {col:?}");
                    return Err(CatalogError::DomainMismatch {
                        attribute: attr.name().to_owned(),
                        expected: attr.domain().name(),
                        actual: v.type_name(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of tuples pushed so far.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// `true` when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish the relation, building the inverted and sorted indexes.
    pub fn build(self) -> Relation {
        let inverted = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Categorical { codes, dict } => {
                    let mut idx: Vec<Vec<RowId>> = vec![Vec::new(); dict.len()];
                    for (row, &code) in codes.iter().enumerate() {
                        if code != NULL_CODE {
                            #[expect(
                                clippy::indexing_slicing,
                                reason = "code < cardinality by dictionary interning"
                            )]
                            idx[code as usize].push(row as RowId);
                        }
                    }
                    idx
                }
                Column::Numeric(_) => Vec::new(),
            })
            .collect();
        let sorted_numeric: Vec<Vec<(f64, RowId)>> = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Numeric(values) => {
                    let mut idx: Vec<(f64, RowId)> = values
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| !v.is_nan())
                        .map(|(row, &v)| (v, row as RowId))
                        .collect();
                    idx.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    idx
                }
                Column::Categorical { .. } => Vec::new(),
            })
            .collect();
        Relation {
            schema: self.schema,
            columns: self.columns,
            inverted,
            sorted_numeric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Price")
            .build()
            .unwrap()
    }

    fn car(make: &str, model: &str, price: f64) -> Tuple {
        Tuple::new(
            &schema(),
            vec![Value::cat(make), Value::cat(model), Value::num(price)],
        )
        .unwrap()
    }

    fn sample_relation() -> Relation {
        Relation::from_tuples(
            schema(),
            &[
                car("Toyota", "Camry", 10000.0),
                car("Honda", "Accord", 9500.0),
                car("Toyota", "Corolla", 8000.0),
                car("Toyota", "Camry", 12000.0),
                car("Ford", "Focus", 7000.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_decode_round_trip() {
        let r = sample_relation();
        assert_eq!(r.len(), 5);
        assert_eq!(r.tuple(0), car("Toyota", "Camry", 10000.0));
        assert_eq!(r.tuple(4), car("Ford", "Focus", 7000.0));
        assert_eq!(r.value(1, AttrId(0)), Value::cat("Honda"));
        assert_eq!(r.value(2, AttrId(2)), Value::num(8000.0));
    }

    #[test]
    fn dictionary_codes_shared_within_column() {
        let r = sample_relation();
        assert_eq!(r.code(0, AttrId(0)), r.code(2, AttrId(0))); // both Toyota
        assert_eq!(r.code(0, AttrId(1)), r.code(3, AttrId(1))); // both Camry
        assert_ne!(r.code(0, AttrId(0)), r.code(1, AttrId(0)));
    }

    #[test]
    fn inverted_index_finds_rows() {
        let r = sample_relation();
        let toyota_rows = r.rows_with_value(AttrId(0), "Toyota");
        assert_eq!(toyota_rows, &[0, 2, 3]);
        assert_eq!(r.rows_with_value(AttrId(0), "BMW"), &[] as &[RowId]);
        let camry_code = r
            .column(AttrId(1))
            .dictionary()
            .unwrap()
            .code_of("Camry")
            .unwrap();
        assert_eq!(r.rows_with_code(AttrId(1), camry_code), &[0, 3]);
    }

    #[test]
    fn tuples_iterator_yields_all_rows() {
        let r = sample_relation();
        let tuples: Vec<Tuple> = r.tuples().collect();
        assert_eq!(tuples.len(), 5);
        assert_eq!(tuples[1], car("Honda", "Accord", 9500.0));
    }

    #[test]
    fn random_sample_without_replacement() {
        let r = sample_relation();
        let s = r.random_sample(3, 42);
        assert_eq!(s.len(), 3);
        // Every sampled tuple exists in the source.
        let originals: Vec<Tuple> = r.tuples().collect();
        for t in s.tuples() {
            assert!(originals.contains(&t));
        }
        // No duplicates beyond source multiplicity: sample of len >= source
        // is a permutation.
        let full = r.random_sample(10, 7);
        assert_eq!(full.len(), 5);
        let mut a: Vec<String> = full.tuples().map(|t| format!("{t:?}")).collect();
        let mut b: Vec<String> = r.tuples().map(|t| format!("{t:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn random_sample_is_deterministic_per_seed() {
        let r = sample_relation();
        let s1: Vec<Tuple> = r.random_sample(3, 9).tuples().collect();
        let s2: Vec<Tuple> = r.random_sample(3, 9).tuples().collect();
        assert_eq!(s1, s2);
    }

    #[test]
    fn builder_rejects_bad_tuples_without_corruption() {
        let mut b = Relation::builder(schema());
        b.push(&car("Toyota", "Camry", 10000.0)).unwrap();
        let bad = Tuple::from_values_unchecked(vec![Value::num(1.0)]);
        assert!(b.push(&bad).is_err());
        let bad_domain = Tuple::from_values_unchecked(vec![
            Value::num(1.0),
            Value::cat("Camry"),
            Value::num(1.0),
        ]);
        assert!(b.push(&bad_domain).is_err());
        let r = b.build();
        assert_eq!(r.len(), 1); // failed pushes left no partial row
        assert_eq!(r.tuple(0), car("Toyota", "Camry", 10000.0));
    }

    #[test]
    fn nulls_survive_round_trip() {
        let s = schema();
        let t = Tuple::new(&s, vec![Value::Null, Value::cat("Camry"), Value::Null]).unwrap();
        let r = Relation::from_tuples(s, std::slice::from_ref(&t)).unwrap();
        assert_eq!(r.tuple(0), t);
        assert_eq!(r.code(0, AttrId(0)), None);
    }

    #[test]
    fn project_rows_preserves_order() {
        let r = sample_relation();
        let p = r.project_rows(&[4, 0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.tuple(0), car("Ford", "Focus", 7000.0));
        assert_eq!(p.tuple(1), car("Toyota", "Camry", 10000.0));
    }

    #[test]
    fn numeric_range_index_binary_search() {
        let r = sample_relation();
        // Prices: 10000, 9500, 8000, 12000, 7000 — indexed in ascending
        // value order, so a range is a binary-searched slice.
        let index = r.numeric_sorted(AttrId(2));
        let values: Vec<f64> = index.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, vec![7000.0, 8000.0, 9500.0, 10000.0, 12000.0]);
        let start = index.partition_point(|&(v, _)| v < 8000.0);
        let end = index.partition_point(|&(v, _)| v < 10000.0);
        let hits: Vec<(f64, RowId)> = index.get(start..end).unwrap().to_vec();
        assert_eq!(hits, vec![(8000.0, 2), (9500.0, 1)]);
        // Categorical attributes have no numeric index.
        assert!(r.numeric_sorted(AttrId(0)).is_empty());
    }

    #[test]
    fn numeric_index_skips_nulls() {
        let s = schema();
        let t1 = Tuple::new(&s, vec![Value::cat("A"), Value::cat("B"), Value::Null]).unwrap();
        let t2 = Tuple::new(&s, vec![Value::cat("A"), Value::cat("B"), Value::num(5.0)]).unwrap();
        let r = Relation::from_tuples(s, &[t1, t2]).unwrap();
        assert_eq!(r.numeric_sorted(AttrId(2)), &[(5.0, 1)]);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::builder(schema()).build();
        assert!(r.is_empty());
        assert_eq!(r.tuples().count(), 0);
    }
}
