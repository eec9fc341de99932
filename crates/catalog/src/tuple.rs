use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AttrId, CatalogError, Result, Schema, Value};

/// A tuple of a relation: one [`Value`] per schema attribute, in schema
/// order.
///
/// Tuples are the currency of the whole system: probed samples, base-set
/// answers, relaxation results and ranked answers are all `Tuple`s. The
/// paper additionally treats each base-set tuple as a *fully bound selection
/// query* (Algorithm 1, step 3); see
/// [`SelectionQuery::from_tuple`](crate::SelectionQuery::from_tuple).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple, validating arity and per-attribute domains against the
    /// schema. `Null` is allowed in any position.
    pub fn new(schema: &Schema, values: Vec<Value>) -> Result<Self> {
        if values.len() != schema.arity() {
            return Err(CatalogError::ArityMismatch {
                expected: schema.arity(),
                actual: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "i < arity: values.len() == arity was just checked"
            )]
            let attr = &schema.attributes()[i];
            let ok = matches!(
                (attr.domain(), v),
                (_, Value::Null)
                    | (crate::Domain::Categorical, Value::Cat(_))
                    | (crate::Domain::Numeric, Value::Num(_))
            );
            if !ok {
                return Err(CatalogError::DomainMismatch {
                    attribute: attr.name().to_owned(),
                    expected: attr.domain().name(),
                    actual: v.type_name(),
                });
            }
        }
        Ok(Tuple { values })
    }

    /// Build a tuple without validation. Intended for storage layers that
    /// have already guaranteed well-formedness (e.g. decoding from a typed
    /// column store).
    pub fn from_values_unchecked(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The value bound to attribute `attr`.
    #[expect(
        clippy::indexing_slicing,
        reason = "values is arity-sized; AttrId is schema-minted"
    )]
    pub fn value(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values (equals the schema arity).
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Ids of the attributes bound to non-null values.
    pub fn bound_attrs(&self) -> Vec<AttrId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_null())
            .map(|(i, _)| AttrId(i))
            .collect()
    }

    /// The tuple as a [`crate::Json`] object keyed by attribute name, in
    /// schema order with nulls included — the deterministic wire form
    /// used by the HTTP search route.
    pub fn to_json(&self, schema: &Schema) -> crate::Json {
        crate::Json::Obj(
            self.values
                .iter()
                .enumerate()
                .map(|(i, v)| (schema.attr_name(AttrId(i)).to_string(), v.to_json()))
                .collect(),
        )
    }

    /// Render with attribute names, e.g.
    /// `{Make=Ford, Model=Focus, Price=15000}` — nulls omitted.
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> TupleDisplay<'a> {
        TupleDisplay {
            tuple: self,
            schema,
        }
    }
}

/// Helper returned by [`Tuple::display_with`].
pub struct TupleDisplay<'a> {
    tuple: &'a Tuple,
    schema: &'a Schema,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (i, v) in self.tuple.values().iter().enumerate() {
            if v.is_null() {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}={}", self.schema.attr_name(AttrId(i)), v)?;
        }
        write!(f, "}}")
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

    #[test]
    fn valid_tuple_builds() {
        let s = schema();
        let t = Tuple::new(
            &s,
            vec![
                Value::cat("Toyota"),
                Value::cat("Camry"),
                Value::num(10000.0),
            ],
        )
        .unwrap();
        assert_eq!(t.value(AttrId(0)), &Value::cat("Toyota"));
        assert_eq!(t.arity(), 3);
        assert_eq!(t.bound_attrs(), vec![AttrId(0), AttrId(1), AttrId(2)]);
    }

    #[test]
    fn nulls_are_permitted_and_skipped_in_bound_attrs() {
        let s = schema();
        let t = Tuple::new(&s, vec![Value::Null, Value::cat("Camry"), Value::Null]).unwrap();
        assert_eq!(t.bound_attrs(), vec![AttrId(1)]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        let err = Tuple::new(&s, vec![Value::cat("Toyota")]).unwrap_err();
        assert_eq!(
            err,
            CatalogError::ArityMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn domain_mismatch_rejected() {
        let s = schema();
        let err = Tuple::new(
            &s,
            vec![Value::num(1.0), Value::cat("Camry"), Value::num(1.0)],
        )
        .unwrap_err();
        assert!(matches!(err, CatalogError::DomainMismatch { .. }));
    }

    #[test]
    fn display_omits_nulls() {
        let s = schema();
        let t = Tuple::new(
            &s,
            vec![Value::cat("Ford"), Value::Null, Value::num(15000.0)],
        )
        .unwrap();
        assert_eq!(t.display_with(&s).to_string(), "{Make=Ford, Price=15000}");
    }
}
