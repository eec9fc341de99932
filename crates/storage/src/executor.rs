use aimq_catalog::{SelectionQuery, Tuple};

use crate::{Relation, RowId};

/// Evaluate a boolean conjunctive selection over a relation, returning
/// matching row ids in ascending order.
///
/// Routes through [`crate::postings`]: every attribute's predicate group
/// resolves to an exactly sized term (a categorical posting list or a
/// numeric band of the value-sorted index), the smallest term is
/// materialised and the others filter its rows against the raw columns.
/// Output is byte-identical to a naive full scan, the oracle every
/// differential test checks against.
pub fn execute_rows(relation: &Relation, query: &SelectionQuery) -> Vec<RowId> {
    crate::postings::execute_query(relation, query)
}

/// Evaluate a selection and decode the matching tuples.
pub fn execute(relation: &Relation, query: &SelectionQuery) -> Vec<Tuple> {
    execute_rows(relation, query)
        .into_iter()
        .map(|r| relation.tuple(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::{AttrId, Predicate, PredicateOp, Schema, Value};
    use proptest::prelude::*;

    fn relation() -> Relation {
        let schema = Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Year")
            .numeric("Price")
            .build()
            .unwrap();
        let rows = [
            ("Toyota", "Camry", 2000.0, 10000.0),
            ("Toyota", "Camry", 1998.0, 7000.0),
            ("Honda", "Accord", 2001.0, 11000.0),
            ("Toyota", "Corolla", 2000.0, 8500.0),
            ("Ford", "Focus", 2002.0, 9000.0),
            ("Honda", "Civic", 1999.0, 6500.0),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(mk, md, y, p)| {
                Tuple::new(
                    &schema,
                    vec![Value::cat(mk), Value::cat(md), Value::num(y), Value::num(p)],
                )
                .unwrap()
            })
            .collect();
        Relation::from_tuples(schema, &tuples).unwrap()
    }

    #[test]
    fn equality_selection_uses_index() {
        let r = relation();
        let q = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))]);
        assert_eq!(execute_rows(&r, &q), vec![0, 1, 3]);
    }

    #[test]
    fn conjunction_of_categorical_and_numeric() {
        let r = relation();
        let q = SelectionQuery::new(vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(9000.0),
            },
        ]);
        assert_eq!(execute_rows(&r, &q), vec![1, 3]);
    }

    #[test]
    fn numeric_only_query_uses_range_index() {
        let r = relation();
        let q = SelectionQuery::new(vec![Predicate {
            attr: AttrId(2),
            op: PredicateOp::Ge,
            value: Value::num(2001.0),
        }]);
        assert_eq!(execute_rows(&r, &q), vec![2, 4]);
    }

    #[test]
    fn numeric_band_query() {
        let r = relation();
        // Price in [7000, 9000) — the engine's bucket-band shape.
        let q = SelectionQuery::new(vec![
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Ge,
                value: Value::num(7000.0),
            },
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(9000.0),
            },
        ]);
        assert_eq!(execute_rows(&r, &q), vec![1, 3]);
    }

    #[test]
    fn numeric_equality_via_bounds() {
        let r = relation();
        let q = SelectionQuery::new(vec![Predicate::eq(AttrId(3), Value::num(8500.0))]);
        assert_eq!(execute_rows(&r, &q), vec![3]);
    }

    #[test]
    fn contradictory_bounds_return_empty() {
        let r = relation();
        let q = SelectionQuery::new(vec![
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Ge,
                value: Value::num(10000.0),
            },
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(8000.0),
            },
        ]);
        assert!(execute_rows(&r, &q).is_empty());
    }

    #[test]
    fn touching_bounds_are_empty() {
        let r = relation();
        // `Ge v ∧ Lt v` is a provably-empty half-open range, alone or
        // beside a categorical predicate that matches rows.
        let q = SelectionQuery::new(vec![
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Ge,
                value: Value::num(9000.0),
            },
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(9000.0),
            },
        ]);
        assert!(execute_rows(&r, &q).is_empty());
        let q_with_cat = SelectionQuery::new(vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Ge,
                value: Value::num(9000.0),
            },
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(9000.0),
            },
        ]);
        assert!(execute_rows(&r, &q_with_cat).is_empty());
    }

    #[test]
    fn nan_bounds_are_empty_not_full_scans() {
        let r = relation();
        // No IEEE comparison admits NaN, so every operator matches nothing.
        for op in [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
        ] {
            let q = SelectionQuery::new(vec![Predicate {
                attr: AttrId(3),
                op,
                value: Value::num(f64::NAN),
            }]);
            assert!(execute_rows(&r, &q).is_empty(), "{op:?}");
        }
    }

    #[test]
    fn permuted_predicates_return_identical_rows() {
        let r = relation();
        let a = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        let b = Predicate::eq(AttrId(1), Value::cat("Camry"));
        let c = Predicate {
            attr: AttrId(2),
            op: PredicateOp::Ge,
            value: Value::num(1998.0),
        };
        let perms: [Vec<Predicate>; 4] = [
            vec![a.clone(), b.clone(), c.clone()],
            vec![c.clone(), b.clone(), a.clone()],
            vec![b.clone(), c.clone(), a.clone()],
            vec![b.clone(), a.clone(), c.clone(), a.clone()],
        ];
        for p in &perms {
            assert_eq!(
                execute_rows(&r, &SelectionQuery::new(p.clone())),
                vec![0, 1]
            );
        }
    }

    #[test]
    fn empty_query_matches_everything() {
        let r = relation();
        assert_eq!(execute_rows(&r, &SelectionQuery::all()).len(), r.len());
    }

    #[test]
    fn no_matches_is_empty_not_error() {
        let r = relation();
        let q = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("BMW"))]);
        assert!(execute(&r, &q).is_empty());
    }

    #[test]
    fn picks_most_selective_driver() {
        let r = relation();
        let q = SelectionQuery::new(vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            Predicate::eq(AttrId(1), Value::cat("Camry")),
        ]);
        assert_eq!(execute_rows(&r, &q), vec![0, 1]);
    }

    #[test]
    fn decoded_execute_matches_row_ids() {
        let r = relation();
        let q = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Honda"))]);
        let tuples = execute(&r, &q);
        let rows = execute_rows(&r, &q);
        assert_eq!(tuples.len(), rows.len());
        for (t, &row) in tuples.iter().zip(&rows) {
            assert_eq!(*t, r.tuple(row));
        }
    }

    /// Reference implementation: full scan.
    fn scan(r: &Relation, q: &SelectionQuery) -> Vec<RowId> {
        r.rows().filter(|&i| q.matches(&r.tuple(i))).collect()
    }

    /// A data value: mostly finite, with `+∞` and `-∞` rows mixed in.
    fn data_value(code: u8, finite: f64) -> f64 {
        match code {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => finite,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn index_paths_agree_with_full_scan(
            rows in prop::collection::vec((0u32..4, 0u8..10, 0.0f64..100.0), 1..60),
            make in 0u32..4,
            lo in 0.0f64..100.0,
            width in 0.0f64..60.0,
            op_pick in 0u8..5,
        ) {
            let schema = Schema::builder("R")
                .categorical("Make")
                .numeric("Price")
                .build()
                .unwrap();
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|&(m, code, p)| {
                    Tuple::new(
                        &schema,
                        vec![Value::cat(format!("m{m}")), Value::num(data_value(code, p))],
                    )
                    .unwrap()
                })
                .collect();
            let r = Relation::from_tuples(schema, &tuples).unwrap();

            let op = [PredicateOp::Ge, PredicateOp::Gt, PredicateOp::Le, PredicateOp::Lt, PredicateOp::Eq][op_pick as usize];
            let q = SelectionQuery::new(vec![
                Predicate::eq(AttrId(0), Value::cat(format!("m{make}"))),
                Predicate { attr: AttrId(1), op, value: Value::num(lo) },
                Predicate { attr: AttrId(1), op: PredicateOp::Lt, value: Value::num(lo + width) },
            ]);
            prop_assert_eq!(&execute_rows(&r, &q), &scan(&r, &q));

            // Numeric-only query too.
            let q = SelectionQuery::new(vec![
                Predicate { attr: AttrId(1), op, value: Value::num(lo) },
            ]);
            prop_assert_eq!(&execute_rows(&r, &q), &scan(&r, &q));
        }

        #[test]
        fn non_finite_predicate_values_agree_with_full_scan(
            rows in prop::collection::vec((0u8..10, 0.0f64..100.0), 1..40),
            bound_pick in 0u8..4,
            op_pick in 0u8..5,
        ) {
            let schema = Schema::builder("R").numeric("X").build().unwrap();
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|&(code, x)| Tuple::new(&schema, vec![Value::num(data_value(code, x))]).unwrap())
                .collect();
            let r = Relation::from_tuples(schema, &tuples).unwrap();

            // Non-finite constants: NaN must match nothing, infinities
            // must match exactly the rows the scan admits — `+∞`/`-∞`
            // data rows included.
            let v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 50.0][bound_pick as usize];
            let op = [PredicateOp::Ge, PredicateOp::Gt, PredicateOp::Le, PredicateOp::Lt, PredicateOp::Eq][op_pick as usize];
            let q = SelectionQuery::new(vec![
                Predicate { attr: AttrId(0), op, value: Value::num(v) },
            ]);
            prop_assert_eq!(&execute_rows(&r, &q), &scan(&r, &q));
        }
    }
}
