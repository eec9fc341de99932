use std::cmp::Ordering;
use std::fmt;

use aimq_catalog::{AttrId, Schema};
use serde::{Deserialize, Serialize};

/// A set of attributes represented as a 64-bit mask.
///
/// Attribute-set lattices are the working currency of TANE: every node of
/// the levelwise search, every AFD antecedent and every approximate key is
/// an `AttrSet`. 64 attributes is far beyond any Web-form relation (the
/// paper's widest is CensusDB with 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrSet(u64);

impl Ord for AttrSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for AttrSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl AttrSet {
    /// Maximum number of attributes representable.
    pub const MAX_ATTRS: usize = 64;

    /// The empty set.
    pub const EMPTY: AttrSet = AttrSet(0);

    /// Singleton set `{attr}`.
    pub fn singleton(attr: AttrId) -> Self {
        assert!(attr.index() < Self::MAX_ATTRS, "attribute index too large");
        AttrSet(1u64 << attr.index())
    }

    /// Set of all attributes of `schema`.
    pub fn full(schema: &Schema) -> Self {
        assert!(schema.arity() <= Self::MAX_ATTRS);
        if schema.arity() == Self::MAX_ATTRS {
            AttrSet(u64::MAX)
        } else {
            AttrSet((1u64 << schema.arity()) - 1)
        }
    }

    /// The raw 64-bit membership mask (for persistence).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild from a raw mask produced by [`AttrSet::bits`].
    pub fn from_bits(bits: u64) -> Self {
        AttrSet(bits)
    }

    /// Build from an iterator of attribute ids.
    pub fn from_attrs(attrs: impl IntoIterator<Item = AttrId>) -> Self {
        attrs.into_iter().fold(AttrSet::EMPTY, |s, a| s.with(a))
    }

    /// This set plus `attr`.
    #[must_use]
    pub fn with(self, attr: AttrId) -> Self {
        assert!(attr.index() < Self::MAX_ATTRS);
        AttrSet(self.0 | (1u64 << attr.index()))
    }

    /// This set minus `attr`.
    #[must_use]
    pub fn without(self, attr: AttrId) -> Self {
        AttrSet(self.0 & !(1u64 << attr.index()))
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: AttrSet) -> Self {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: AttrSet) -> Self {
        AttrSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: AttrSet) -> Self {
        AttrSet(self.0 & !other.0)
    }

    /// Membership test.
    pub fn contains(self, attr: AttrId) -> bool {
        attr.index() < Self::MAX_ATTRS && (self.0 >> attr.index()) & 1 == 1
    }

    /// `true` if every attribute of `other` is in `self`.
    pub fn is_superset_of(self, other: AttrSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Number of attributes in the set — the paper's `size(A)`.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` for the empty set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over members in ascending attribute order.
    pub fn iter(self) -> impl Iterator<Item = AttrId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(AttrId(i))
            }
        })
    }

    /// All subsets obtained by removing exactly one member — the lattice
    /// parents TANE combines.
    pub fn subsets_dropping_one(self) -> impl Iterator<Item = (AttrId, AttrSet)> {
        self.iter().map(move |a| (a, self.without(a)))
    }

    /// Render as attribute names, e.g. `{Make, Model}`.
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> AttrSetDisplay<'a> {
        AttrSetDisplay { set: self, schema }
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<T: IntoIterator<Item = AttrId>>(iter: T) -> Self {
        AttrSet::from_attrs(iter)
    }
}

/// Helper returned by [`AttrSet::display_with`].
pub struct AttrSetDisplay<'a> {
    set: &'a AttrSet,
    schema: &'a Schema,
}

impl fmt::Display for AttrSetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.set.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.schema.attr_name(a))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        let s = AttrSet::from_attrs([AttrId(0), AttrId(2), AttrId(5)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(AttrId(0)));
        assert!(!s.contains(AttrId(1)));
        assert!(s.contains(AttrId(5)));
        assert!(!s.contains(AttrId(63)));
    }

    #[test]
    fn with_without_round_trip() {
        let s = AttrSet::singleton(AttrId(3));
        let s2 = s.with(AttrId(7)).without(AttrId(3));
        assert_eq!(s2, AttrSet::singleton(AttrId(7)));
        // Removing an absent attribute is a no-op.
        assert_eq!(s.without(AttrId(9)), s);
        // Adding a present attribute is a no-op.
        assert_eq!(s.with(AttrId(3)), s);
    }

    #[test]
    fn set_algebra() {
        let a = AttrSet::from_attrs([AttrId(0), AttrId(1)]);
        let b = AttrSet::from_attrs([AttrId(1), AttrId(2)]);
        assert_eq!(
            a.union(b),
            AttrSet::from_attrs([AttrId(0), AttrId(1), AttrId(2)])
        );
        assert_eq!(a.intersect(b), AttrSet::singleton(AttrId(1)));
        assert_eq!(a.difference(b), AttrSet::singleton(AttrId(0)));
        assert!(a.union(b).is_superset_of(a));
        assert!(!a.is_superset_of(b));
    }

    #[test]
    fn iter_is_sorted() {
        let s = AttrSet::from_attrs([AttrId(5), AttrId(0), AttrId(3)]);
        let ids: Vec<usize> = s.iter().map(AttrId::index).collect();
        assert_eq!(ids, vec![0, 3, 5]);
    }

    #[test]
    fn subsets_dropping_one_enumerates_parents() {
        let s = AttrSet::from_attrs([AttrId(0), AttrId(1), AttrId(2)]);
        let parents: Vec<(usize, usize)> = s
            .subsets_dropping_one()
            .map(|(a, sub)| (a.index(), sub.len()))
            .collect();
        assert_eq!(parents.len(), 3);
        assert!(parents.iter().all(|&(_, l)| l == 2));
    }

    #[test]
    fn full_set_matches_schema() {
        let schema = Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .numeric("C")
            .build()
            .unwrap();
        let s = AttrSet::full(&schema);
        assert_eq!(s.len(), 3);
        assert!(schema.attr_ids().all(|a| s.contains(a)));
    }

    #[test]
    fn display_uses_names() {
        let schema = Schema::builder("R")
            .categorical("Make")
            .categorical("Model")
            .build()
            .unwrap();
        let s = AttrSet::from_attrs([AttrId(0), AttrId(1)]);
        assert_eq!(s.display_with(&schema).to_string(), "{Make, Model}");
    }

    #[test]
    fn empty_set_behaves() {
        let e = AttrSet::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.iter().count(), 0);
        assert!(AttrSet::singleton(AttrId(1)).is_superset_of(e));
    }
}
