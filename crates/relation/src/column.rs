use aimq_catalog::Value;
use serde::{Deserialize, Serialize};

use crate::Dictionary;

/// Sentinel dictionary code representing SQL NULL in categorical columns.
/// Numeric columns use `NaN` for the same purpose.
pub const NULL_CODE: u32 = u32::MAX;

/// A typed column of a [`Relation`](crate::Relation).
///
/// Categorical columns are dictionary-encoded; all mining algorithms work
/// on the `u32` codes and only translate back to strings at presentation
/// time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    /// Dictionary-encoded strings; `NULL_CODE` marks nulls.
    Categorical {
        /// One code per row.
        codes: Vec<u32>,
        /// The code ↔ string mapping.
        dict: Dictionary,
    },
    /// Raw numerics; `NaN` marks nulls.
    Numeric(Vec<f64>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical { codes, .. } => codes.len(),
            Column::Numeric(vs) => vs.len(),
        }
    }

    /// `true` when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode row `row` into an owned [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Categorical { codes, dict } => {
                // `NULL_CODE` falls outside every dictionary, so nulls and
                // (would-be corruption) codes the builder never interned
                // both decode to null instead of panicking.
                #[expect(
                    clippy::indexing_slicing,
                    reason = "row < n_rows: the relation hands out only its own row range"
                )]
                let code = codes[row];
                dict.value_of(code).map_or(Value::Null, Value::cat)
            }
            Column::Numeric(vs) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "row < n_rows: the relation hands out only its own row range"
                )]
                let v = vs[row];
                if v.is_nan() {
                    Value::Null
                } else {
                    Value::Num(v)
                }
            }
        }
    }

    /// Dictionary code at `row` (categorical columns only).
    pub fn code(&self, row: usize) -> Option<u32> {
        match self {
            Column::Categorical { codes, .. } => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "row < n_rows: the relation hands out only its own row range"
                )]
                let c = codes[row];
                (c != NULL_CODE).then_some(c)
            }
            Column::Numeric(_) => None,
        }
    }

    /// Numeric value at `row` (numeric columns only, `None` for null).
    pub fn num(&self, row: usize) -> Option<f64> {
        match self {
            Column::Numeric(vs) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "row < n_rows: the relation hands out only its own row range"
                )]
                let v = vs[row];
                (!v.is_nan()).then_some(v)
            }
            Column::Categorical { .. } => None,
        }
    }

    /// The dictionary backing a categorical column.
    pub fn dictionary(&self) -> Option<&Dictionary> {
        match self {
            Column::Categorical { dict, .. } => Some(dict),
            Column::Numeric(_) => None,
        }
    }

    /// Raw code vector of a categorical column.
    pub fn codes(&self) -> Option<&[u32]> {
        match self {
            Column::Categorical { codes, .. } => Some(codes),
            Column::Numeric(_) => None,
        }
    }

    /// Raw numeric vector of a numeric column.
    pub fn numbers(&self) -> Option<&[f64]> {
        match self {
            Column::Numeric(vs) => Some(vs),
            Column::Categorical { .. } => None,
        }
    }

    /// Number of distinct non-null values in the column.
    pub fn distinct_count(&self) -> usize {
        match self {
            Column::Categorical { dict, .. } => dict.len(),
            Column::Numeric(vs) => {
                let mut sorted: Vec<u64> = vs
                    .iter()
                    .filter(|v| !v.is_nan())
                    .map(|v| v.to_bits())
                    .collect();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat_column(values: &[&str]) -> Column {
        let mut dict = Dictionary::new();
        let codes = values.iter().map(|v| dict.intern(v)).collect();
        Column::Categorical { codes, dict }
    }

    #[test]
    fn categorical_round_trip() {
        let c = cat_column(&["Ford", "Toyota", "Ford"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::cat("Ford"));
        assert_eq!(c.value(1), Value::cat("Toyota"));
        assert_eq!(c.code(0), c.code(2));
        assert_ne!(c.code(0), c.code(1));
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn categorical_null_sentinel() {
        let mut dict = Dictionary::new();
        dict.intern("Ford");
        let c = Column::Categorical {
            codes: vec![0, NULL_CODE],
            dict,
        };
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.code(1), None);
    }

    #[test]
    fn numeric_round_trip_and_nan_null() {
        let c = Column::Numeric(vec![1.0, f64::NAN, 3.0, 1.0]);
        assert_eq!(c.value(0), Value::num(1.0));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.num(1), None);
        assert_eq!(c.num(2), Some(3.0));
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn typed_accessors_return_none_cross_type() {
        let c = cat_column(&["x"]);
        assert_eq!(c.num(0), None);
        assert!(c.numbers().is_none());
        let n = Column::Numeric(vec![1.0]);
        assert_eq!(n.code(0), None);
        assert!(n.codes().is_none());
        assert!(n.dictionary().is_none());
    }
}
