use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{CatalogError, Result};

/// Attribute lookup by name. Hashing is safe here: the index is only
/// probed by key, never iterated, so its order cannot reach any output.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only name index; never iterated, so hash order cannot leak"
)]
type NameIndex = std::collections::HashMap<String, AttrId>;

/// Index of an attribute within a [`Schema`] (position in the relation).
///
/// A thin newtype instead of a bare `usize` so that row ids, value codes and
/// attribute positions cannot be confused at call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrId(pub usize);

impl Ord for AttrId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for AttrId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl AttrId {
    /// Raw index into the schema's attribute list.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The domain of an attribute, as the paper distinguishes them (Section 5):
/// similarity between categorical values is mined from co-occurrence, while
/// numeric similarity is a normalized distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Finite string domain (`Make`, `Model`, `Color`, ...).
    Categorical,
    /// Continuous numeric domain (`Price`, `Mileage`, ...).
    Numeric,
}

impl Domain {
    /// Name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Categorical => "categorical",
            Domain::Numeric => "numeric",
        }
    }
}

/// A named, typed attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    name: String,
    domain: Domain,
}

impl Attribute {
    /// Create a categorical attribute.
    pub fn categorical(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            domain: Domain::Categorical,
        }
    }

    /// Create a numeric attribute.
    pub fn numeric(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            domain: Domain::Numeric,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }
}

/// An immutable relation schema: an ordered list of attributes with unique
/// names. Cheap to clone (`Arc` inside) because every tuple, query, mined
/// dependency and similarity model carries one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug, Serialize, Deserialize)]
struct SchemaInner {
    name: String,
    attrs: Vec<Attribute>,
    by_name: NameIndex,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.name == other.inner.name && self.inner.attrs == other.inner.attrs)
    }
}

impl Eq for Schema {}

impl Schema {
    /// Start building a schema for the relation `name`.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            attrs: Vec::new(),
        }
    }

    /// The relation name (e.g. `CarDB`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of attributes (the paper's `count(Attributes(R))`).
    pub fn arity(&self) -> usize {
        self.inner.attrs.len()
    }

    /// All attributes in schema order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.inner.attrs
    }

    /// All attribute ids in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.arity()).map(AttrId)
    }

    /// Ids of all categorical attributes, in schema order.
    pub fn categorical_attrs(&self) -> Vec<AttrId> {
        self.attr_ids()
            .filter(|&a| self.domain(a) == Domain::Categorical)
            .collect()
    }

    /// Ids of all numeric attributes, in schema order.
    pub fn numeric_attrs(&self) -> Vec<AttrId> {
        self.attr_ids()
            .filter(|&a| self.domain(a) == Domain::Numeric)
            .collect()
    }

    /// Look up an attribute by id.
    pub fn attribute(&self, attr: AttrId) -> Result<&Attribute> {
        self.inner
            .attrs
            .get(attr.index())
            .ok_or(CatalogError::AttrIdOutOfRange {
                attr: attr.index(),
                len: self.arity(),
            })
    }

    /// The name of attribute `attr`; panics on out-of-range ids (programmer
    /// error — ids should only come from this schema).
    #[expect(
        clippy::indexing_slicing,
        reason = "AttrId was minted by this schema, so index < arity"
    )]
    pub fn attr_name(&self, attr: AttrId) -> &str {
        self.inner.attrs[attr.index()].name()
    }

    /// The domain of attribute `attr` (panics on out-of-range ids).
    #[expect(
        clippy::indexing_slicing,
        reason = "AttrId was minted by this schema, so index < arity"
    )]
    pub fn domain(&self, attr: AttrId) -> Domain {
        self.inner.attrs[attr.index()].domain()
    }

    /// Resolve an attribute name to its id.
    pub fn attr_id(&self, name: &str) -> Result<AttrId> {
        self.inner
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::UnknownAttribute(name.to_owned()))
    }

    /// `true` if `attr` belongs to this schema.
    pub fn contains(&self, attr: AttrId) -> bool {
        attr.index() < self.arity()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name())?;
        for (i, a) in self.attributes().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.name())?;
        }
        write!(f, ")")
    }
}

/// Builder for [`Schema`]; rejects duplicate attribute names.
#[derive(Debug)]
pub struct SchemaBuilder {
    name: String,
    attrs: Vec<Attribute>,
}

impl SchemaBuilder {
    /// Append a categorical attribute.
    pub fn categorical(mut self, name: impl Into<String>) -> Self {
        self.attrs.push(Attribute::categorical(name));
        self
    }

    /// Append a numeric attribute.
    pub fn numeric(mut self, name: impl Into<String>) -> Self {
        self.attrs.push(Attribute::numeric(name));
        self
    }

    /// Append an already-constructed attribute.
    pub fn attribute(mut self, attr: Attribute) -> Self {
        self.attrs.push(attr);
        self
    }

    /// Finish the schema, validating name uniqueness.
    pub fn build(self) -> Result<Schema> {
        let mut by_name = NameIndex::with_capacity(self.attrs.len());
        for (i, a) in self.attrs.iter().enumerate() {
            if by_name.insert(a.name().to_owned(), AttrId(i)).is_some() {
                return Err(CatalogError::DuplicateAttribute(a.name().to_owned()));
            }
        }
        Ok(Schema {
            inner: Arc::new(SchemaInner {
                name: self.name,
                attrs: self.attrs,
                by_name,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn car_schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Year")
            .numeric("Price")
            .numeric("Mileage")
            .categorical("Location")
            .categorical("Color")
            .build()
            .unwrap()
    }

    #[test]
    fn builds_paper_cardb_schema() {
        let s = car_schema();
        assert_eq!(s.name(), "CarDB");
        assert_eq!(s.arity(), 7);
        assert_eq!(s.attr_name(AttrId(1)), "Model");
        assert_eq!(s.domain(AttrId(3)), Domain::Numeric);
        assert_eq!(s.domain(AttrId(0)), Domain::Categorical);
    }

    #[test]
    fn name_lookup_round_trips() {
        let s = car_schema();
        for a in s.attr_ids() {
            assert_eq!(s.attr_id(s.attr_name(a)).unwrap(), a);
        }
        assert!(matches!(
            s.attr_id("Engine"),
            Err(CatalogError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::builder("R")
            .categorical("A")
            .numeric("A")
            .build()
            .unwrap_err();
        assert_eq!(err, CatalogError::DuplicateAttribute("A".into()));
    }

    #[test]
    fn categorical_and_numeric_partitions_cover_schema() {
        let s = car_schema();
        let cats = s.categorical_attrs();
        let nums = s.numeric_attrs();
        assert_eq!(cats.len() + nums.len(), s.arity());
        assert!(cats.iter().all(|&a| s.domain(a) == Domain::Categorical));
        assert!(nums.iter().all(|&a| s.domain(a) == Domain::Numeric));
    }

    #[test]
    fn attribute_out_of_range_is_error() {
        let s = car_schema();
        assert!(matches!(
            s.attribute(AttrId(7)),
            Err(CatalogError::AttrIdOutOfRange { attr: 7, len: 7 })
        ));
    }

    #[test]
    fn display_lists_attributes() {
        let s = car_schema();
        let d = s.to_string();
        assert!(d.starts_with("CarDB("));
        assert!(d.contains("Make, Model, Year"));
    }

    #[test]
    fn equality_by_structure() {
        let a = car_schema();
        let b = car_schema();
        assert_eq!(a, b);
        let c = Schema::builder("CarDB")
            .categorical("Make")
            .build()
            .unwrap();
        assert_ne!(a, c);
    }
}
