use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AttrId, CatalogError, Domain, Result, Schema, Tuple, Value};

/// Comparison operator of a precise predicate.
///
/// Categorical attributes only admit [`PredicateOp::Eq`]; numeric attributes
/// admit the full set. This mirrors the boolean query-processing model the
/// paper assumes the autonomous Web database exposes (Section 3.1,
/// constraint 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredicateOp {
    /// `attr = v`
    Eq,
    /// `attr < v` (numeric only)
    Lt,
    /// `attr <= v` (numeric only)
    Le,
    /// `attr > v` (numeric only)
    Gt,
    /// `attr >= v` (numeric only)
    Ge,
}

impl PredicateOp {
    /// SQL-ish operator symbol for display.
    pub fn symbol(self) -> &'static str {
        match self {
            PredicateOp::Eq => "=",
            PredicateOp::Lt => "<",
            PredicateOp::Le => "<=",
            PredicateOp::Gt => ">",
            PredicateOp::Ge => ">=",
        }
    }
}

/// Declaration order: `Eq < Lt < Le < Gt < Ge`.
impl Ord for PredicateOp {
    fn cmp(&self, other: &Self) -> Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for PredicateOp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A single conjunct of a [`SelectionQuery`].
///
/// The total order — `(attr, op, value)` lexicographically, with
/// [`crate::Value`]'s NaN-collapsing `Ord` — is what makes a
/// [`SelectionQuery`] canonicalizable and usable as a `BTreeMap` key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Predicate {
    /// Attribute constrained by this predicate.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: PredicateOp,
    /// Comparison constant.
    pub value: Value,
}

impl Ord for Predicate {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.attr, self.op, &self.value).cmp(&(other.attr, other.op, &other.value))
    }
}

impl PartialOrd for Predicate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Predicate {
    /// Equality predicate `attr = value`.
    pub fn eq(attr: AttrId, value: Value) -> Self {
        Predicate {
            attr,
            op: PredicateOp::Eq,
            value,
        }
    }

    /// Validate the predicate against a schema (domain & operator rules).
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        let attribute = schema.attribute(self.attr)?;
        match (attribute.domain(), &self.value) {
            (Domain::Categorical, Value::Cat(_)) => {
                if self.op != PredicateOp::Eq {
                    return Err(CatalogError::InvalidOperator {
                        attribute: attribute.name().to_owned(),
                        op: self.op.symbol().to_owned(),
                    });
                }
            }
            (Domain::Numeric, Value::Num(_)) => {}
            (_, v) => {
                return Err(CatalogError::DomainMismatch {
                    attribute: attribute.name().to_owned(),
                    expected: attribute.domain().name(),
                    actual: v.type_name(),
                });
            }
        }
        Ok(())
    }

    /// `true` when `tuple` satisfies this predicate. Null tuple values never
    /// satisfy any predicate.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        let tv = tuple.value(self.attr);
        match (self.op, tv, &self.value) {
            (PredicateOp::Eq, tv, qv) => !tv.is_null() && tv == qv,
            (PredicateOp::Lt, Value::Num(t), Value::Num(q)) => t < q,
            (PredicateOp::Le, Value::Num(t), Value::Num(q)) => t <= q,
            (PredicateOp::Gt, Value::Num(t), Value::Num(q)) => t > q,
            (PredicateOp::Ge, Value::Num(t), Value::Num(q)) => t >= q,
            _ => false,
        }
    }
}

/// A *precise* conjunctive selection query: the only kind the autonomous
/// Web-database interface can evaluate. A tuple either satisfies all
/// predicates or is not an answer — no ranking.
///
/// Queries carry a total order (predicate lists compared lexicographically)
/// so that [`SelectionQuery::canonicalize`]d forms can key deterministic
/// `BTreeMap`-based caches. Note that `Eq`/`Ord` compare the *syntactic*
/// predicate list: `σ(A=1 ∧ B=2)` and `σ(B=2 ∧ A=1)` are different values
/// but share one canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SelectionQuery {
    predicates: Vec<Predicate>,
}

impl Ord for SelectionQuery {
    fn cmp(&self, other: &Self) -> Ordering {
        self.predicates.cmp(&other.predicates)
    }
}

impl PartialOrd for SelectionQuery {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl SelectionQuery {
    /// The query with no predicates (matches every tuple).
    pub fn all() -> Self {
        SelectionQuery::default()
    }

    /// Build from a list of predicates.
    pub fn new(predicates: Vec<Predicate>) -> Self {
        SelectionQuery { predicates }
    }

    /// Algorithm 1 step 3 viewpoint: treat a tuple as a fully bound
    /// equality-selection query over the attributes in `attrs` (typically
    /// all non-null attributes of the tuple).
    pub fn from_tuple(tuple: &Tuple, attrs: &[AttrId]) -> Self {
        let predicates = attrs
            .iter()
            .filter(|&&a| !tuple.value(a).is_null())
            .map(|&a| Predicate::eq(a, tuple.value(a).clone()))
            .collect();
        SelectionQuery { predicates }
    }

    /// The conjuncts of this query.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// `true` when the query has no predicates.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Attributes constrained by at least one predicate, in predicate order
    /// without duplicates.
    pub fn bound_attrs(&self) -> Vec<AttrId> {
        let mut seen = Vec::new();
        for p in &self.predicates {
            if !seen.contains(&p.attr) {
                seen.push(p.attr);
            }
        }
        seen
    }

    /// Add a predicate (builder style).
    pub fn and(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// *Relaxation*: a copy of this query with every predicate on the
    /// attributes in `attrs` removed. This is the primitive both
    /// `GuidedRelax` and `RandomRelax` are built from.
    pub fn relax(&self, attrs: &[AttrId]) -> Self {
        SelectionQuery {
            predicates: self
                .predicates
                .iter()
                .filter(|p| !attrs.contains(&p.attr))
                .cloned()
                .collect(),
        }
    }

    /// `true` when the predicate list is already canonical — strictly
    /// sorted by `(attr, op, value)` with no duplicates. The O(n)
    /// pre-check lets callers that already hold a canonical form (the
    /// engine's probe plan stores one per probe) skip the sort-and-dedup
    /// in [`SelectionQuery::canonicalize`] and the clone in cache-key
    /// derivation.
    pub fn is_canonical(&self) -> bool {
        self.predicates
            .iter()
            .zip(self.predicates.iter().skip(1))
            .all(|(a, b)| a < b)
    }

    /// Canonical form: predicates sorted by `(attr, op, value)` with exact
    /// duplicates removed. Conjunction is commutative and idempotent, so a
    /// query and its canonical form select exactly the same tuples; two
    /// queries with equal canonical forms are semantically interchangeable
    /// probes. Probe-dedup and the memoizing cache key on this form.
    ///
    /// Already-canonical queries take a sort-free fast path.
    #[must_use]
    pub fn canonicalize(&self) -> SelectionQuery {
        if self.is_canonical() {
            return self.clone();
        }
        let mut predicates = self.predicates.clone();
        predicates.sort();
        predicates.dedup();
        SelectionQuery { predicates }
    }

    /// Deterministic 64-bit FNV-1a hash of the *canonical* form: stable
    /// across processes and runs (unlike `std`'s per-process-seeded
    /// `RandomState`), and equal for semantically interchangeable probes
    /// regardless of predicate order or duplicate conjuncts. NaN payloads
    /// and `-0.0` collapse the same way [`Value`]'s `Eq` does. Cache
    /// stripe selection and keyed fault schedules are built on this.
    pub fn stable_hash(&self) -> u64 {
        if self.is_canonical() {
            stable_hash_of(&self.predicates)
        } else {
            stable_hash_of(&self.canonicalize().predicates)
        }
    }

    /// Validate every predicate against `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        for p in &self.predicates {
            p.validate(schema)?;
        }
        Ok(())
    }

    /// Boolean evaluation: does `tuple` satisfy every conjunct?
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.predicates.iter().all(|p| p.matches(tuple))
    }

    /// Render with attribute names, e.g. `σ(Model=Camry ∧ Price<=10000)`.
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> SelectionQueryDisplay<'a> {
        SelectionQueryDisplay {
            query: self,
            schema,
        }
    }
}

/// FNV-1a over a canonical predicate list. Values are encoded with a
/// domain tag so `Cat("1")` and `Num(1.0)` cannot collide structurally.
fn stable_hash_of(predicates: &[Predicate]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    fn mix(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for p in predicates {
        hash = mix(hash, &(p.attr.0 as u64).to_le_bytes());
        let op = match p.op {
            PredicateOp::Eq => 0u8,
            PredicateOp::Lt => 1,
            PredicateOp::Le => 2,
            PredicateOp::Gt => 3,
            PredicateOp::Ge => 4,
        };
        hash = mix(hash, &[op]);
        match &p.value {
            Value::Null => hash = mix(hash, &[0]),
            Value::Num(n) => {
                hash = mix(hash, &[1]);
                hash = mix(hash, &crate::value::canonical_bits(*n).to_le_bytes());
            }
            Value::Cat(s) => {
                hash = mix(hash, &[2]);
                hash = mix(hash, &(s.len() as u64).to_le_bytes());
                hash = mix(hash, s.as_bytes());
            }
        }
    }
    hash
}

/// Helper returned by [`SelectionQuery::display_with`].
pub struct SelectionQueryDisplay<'a> {
    query: &'a SelectionQuery,
    schema: &'a Schema,
}

impl fmt::Display for SelectionQueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ(")?;
        for (i, p) in self.query.predicates().iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(
                f,
                "{}{}{}",
                self.schema.attr_name(p.attr),
                p.op.symbol(),
                p.value
            )?;
        }
        write!(f, ")")
    }
}

/// The user-facing *imprecise* query of the paper: a conjunction of
/// `attribute like value` bindings whose answers must be *similar* to the
/// constraints rather than exactly equal (Section 3.2).
///
/// Example (the paper's running query):
///
/// ```
/// use aimq_catalog::{ImpreciseQuery, Schema, Value};
///
/// let schema = Schema::builder("CarDB")
///     .categorical("Make").categorical("Model").numeric("Price")
///     .build().unwrap();
/// let q = ImpreciseQuery::builder(&schema)
///     .like("Model", Value::cat("Camry")).unwrap()
///     .like("Price", Value::num(10000.0)).unwrap()
///     .build().unwrap();
/// assert_eq!(q.bindings().len(), 2);
/// let base = q.to_base_query(); // tighten "like" into "="
/// assert_eq!(base.predicates().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpreciseQuery {
    bindings: Vec<(AttrId, Value)>,
}

impl ImpreciseQuery {
    /// Start building an imprecise query against `schema`.
    pub fn builder(schema: &Schema) -> ImpreciseQueryBuilder<'_> {
        ImpreciseQueryBuilder {
            schema,
            bindings: Vec::new(),
        }
    }

    /// Build directly from `(attribute, value)` pairs (already validated by
    /// the caller).
    pub fn from_bindings(bindings: Vec<(AttrId, Value)>) -> Result<Self> {
        if bindings.is_empty() {
            return Err(CatalogError::EmptyQuery);
        }
        Ok(ImpreciseQuery { bindings })
    }

    /// Derive an imprecise query from a tuple: every non-null attribute of
    /// the tuple becomes a `like` binding. Used heavily by the evaluation
    /// harness, which draws query workloads from the relation itself
    /// (Sections 6.3–6.5).
    pub fn from_tuple(tuple: &Tuple) -> Result<Self> {
        let bindings: Vec<(AttrId, Value)> = tuple
            .bound_attrs()
            .into_iter()
            .map(|a| (a, tuple.value(a).clone()))
            .collect();
        Self::from_bindings(bindings)
    }

    /// The `attribute like value` bindings.
    pub fn bindings(&self) -> &[(AttrId, Value)] {
        &self.bindings
    }

    /// Attributes bound by the query — the paper's
    /// `boundattributes(Q)`.
    pub fn bound_attrs(&self) -> Vec<AttrId> {
        self.bindings.iter().map(|&(a, _)| a).collect()
    }

    /// The value the query binds for `attr`, if any.
    pub fn value_for(&self, attr: AttrId) -> Option<&Value> {
        self.bindings
            .iter()
            .find(|&&(a, _)| a == attr)
            .map(|(_, v)| v)
    }

    /// Map the imprecise query to its *base query* `Qpr` by tightening every
    /// `like` into `=` (Section 1: "we derive Qpr by tightening the
    /// constraints from likeliness to equality").
    pub fn to_base_query(&self) -> SelectionQuery {
        SelectionQuery::new(
            self.bindings
                .iter()
                .map(|(a, v)| Predicate::eq(*a, v.clone()))
                .collect(),
        )
    }

    /// Render with attribute names, e.g.
    /// `Q(Model like Camry, Price like 10000)`.
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> ImpreciseQueryDisplay<'a> {
        ImpreciseQueryDisplay {
            query: self,
            schema,
        }
    }
}

/// Helper returned by [`ImpreciseQuery::display_with`].
pub struct ImpreciseQueryDisplay<'a> {
    query: &'a ImpreciseQuery,
    schema: &'a Schema,
}

impl fmt::Display for ImpreciseQueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q(")?;
        for (i, (a, v)) in self.query.bindings().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} like {}", self.schema.attr_name(*a), v)?;
        }
        write!(f, ")")
    }
}

/// Builder for [`ImpreciseQuery`] that validates names and domains eagerly.
#[derive(Debug)]
pub struct ImpreciseQueryBuilder<'a> {
    schema: &'a Schema,
    bindings: Vec<(AttrId, Value)>,
}

impl ImpreciseQueryBuilder<'_> {
    /// Add an `attribute like value` binding by attribute name.
    pub fn like(mut self, attr_name: &str, value: Value) -> Result<Self> {
        let attr = self.schema.attr_id(attr_name)?;
        let attribute = self.schema.attribute(attr)?;
        let ok = matches!(
            (attribute.domain(), &value),
            (Domain::Categorical, Value::Cat(_)) | (Domain::Numeric, Value::Num(_))
        );
        if !ok {
            return Err(CatalogError::DomainMismatch {
                attribute: attribute.name().to_owned(),
                expected: attribute.domain().name(),
                actual: value.type_name(),
            });
        }
        self.bindings.push((attr, value));
        Ok(self)
    }

    /// Finish the query; at least one binding is required.
    pub fn build(self) -> Result<ImpreciseQuery> {
        ImpreciseQuery::from_bindings(self.bindings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Year")
            .numeric("Price")
            .build()
            .unwrap()
    }

    fn tuple(make: &str, model: &str, year: f64, price: f64) -> Tuple {
        Tuple::new(
            &schema(),
            vec![
                Value::cat(make),
                Value::cat(model),
                Value::num(year),
                Value::num(price),
            ],
        )
        .unwrap()
    }

    #[test]
    fn equality_predicate_matches() {
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        let p = Predicate::eq(AttrId(1), Value::cat("Camry"));
        assert!(p.matches(&t));
        let p = Predicate::eq(AttrId(1), Value::cat("Accord"));
        assert!(!p.matches(&t));
    }

    #[test]
    fn numeric_comparisons() {
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        let lt = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Lt,
            value: Value::num(10001.0),
        };
        assert!(lt.matches(&t));
        let gt = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Gt,
            value: Value::num(10000.0),
        };
        assert!(!gt.matches(&t));
        let ge = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Ge,
            value: Value::num(10000.0),
        };
        assert!(ge.matches(&t));
        let le = Predicate {
            attr: AttrId(2),
            op: PredicateOp::Le,
            value: Value::num(1999.0),
        };
        assert!(!le.matches(&t));
    }

    #[test]
    fn null_never_matches() {
        let s = schema();
        let t = Tuple::new(
            &s,
            vec![Value::Null, Value::cat("Camry"), Value::Null, Value::Null],
        )
        .unwrap();
        assert!(!Predicate::eq(AttrId(0), Value::cat("Toyota")).matches(&t));
        let lt = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Lt,
            value: Value::num(1.0),
        };
        assert!(!lt.matches(&t));
    }

    #[test]
    fn categorical_range_operator_invalid() {
        let s = schema();
        let p = Predicate {
            attr: AttrId(0),
            op: PredicateOp::Lt,
            value: Value::cat("Ford"),
        };
        assert!(matches!(
            p.validate(&s),
            Err(CatalogError::InvalidOperator { .. })
        ));
    }

    #[test]
    fn predicate_domain_validation() {
        let s = schema();
        let p = Predicate::eq(AttrId(0), Value::num(3.0));
        assert!(matches!(
            p.validate(&s),
            Err(CatalogError::DomainMismatch { .. })
        ));
        let p = Predicate::eq(AttrId(3), Value::num(3.0));
        assert!(p.validate(&s).is_ok());
    }

    #[test]
    fn conjunction_semantics() {
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        let q = SelectionQuery::all()
            .and(Predicate::eq(AttrId(0), Value::cat("Toyota")))
            .and(Predicate::eq(AttrId(1), Value::cat("Camry")));
        assert!(q.matches(&t));
        let q = q.and(Predicate::eq(AttrId(3), Value::num(9999.0)));
        assert!(!q.matches(&t));
        assert!(SelectionQuery::all().matches(&t));
    }

    #[test]
    fn from_tuple_binds_all_requested_attrs() {
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        let q = SelectionQuery::from_tuple(&t, &[AttrId(0), AttrId(1), AttrId(2), AttrId(3)]);
        assert_eq!(q.len(), 4);
        assert!(q.matches(&t));
        assert!(!q.matches(&tuple("Toyota", "Camry", 2001.0, 10000.0)));
    }

    #[test]
    fn relax_drops_named_attributes() {
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        let q = SelectionQuery::from_tuple(&t, &[AttrId(0), AttrId(1), AttrId(2), AttrId(3)]);
        let r = q.relax(&[AttrId(2), AttrId(3)]);
        assert_eq!(r.bound_attrs(), vec![AttrId(0), AttrId(1)]);
        // The relaxed query matches tuples that differ in relaxed attrs.
        assert!(r.matches(&tuple("Toyota", "Camry", 1995.0, 4000.0)));
        assert!(!r.matches(&tuple("Honda", "Camry", 2000.0, 10000.0)));
    }

    #[test]
    fn relax_everything_matches_all() {
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        let q = SelectionQuery::from_tuple(&t, &[AttrId(0), AttrId(1)]);
        let r = q.relax(&[AttrId(0), AttrId(1)]);
        assert!(r.is_empty());
        assert!(r.matches(&tuple("BMW", "M3", 2005.0, 45000.0)));
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let a = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        let b = Predicate::eq(AttrId(1), Value::cat("Camry"));
        let c = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Ge,
            value: Value::num(5000.0),
        };
        let q1 = SelectionQuery::new(vec![c.clone(), a.clone(), b.clone(), a.clone()]);
        let q2 = SelectionQuery::new(vec![b.clone(), c.clone(), a.clone()]);
        assert_ne!(q1, q2, "syntactic order distinguishes the raw queries");
        assert_eq!(q1.canonicalize(), q2.canonicalize());
        let canon = q1.canonicalize();
        assert_eq!(canon.predicates(), &[a, b, c]);
        // Canonicalization is idempotent and semantics-preserving.
        assert_eq!(canon.canonicalize(), canon);
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        assert_eq!(q1.matches(&t), canon.matches(&t));
    }

    #[test]
    fn canonical_queries_order_totally() {
        // `Ord` must agree with `Eq` so canonical forms key a BTreeMap.
        let q1 = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("A"))]);
        let q2 = SelectionQuery::new(vec![Predicate::eq(AttrId(1), Value::cat("A"))]);
        assert!(q1 < q2);
        assert_eq!(q1.cmp(&q1), std::cmp::Ordering::Equal);
        let mut map = std::collections::BTreeMap::new();
        map.insert(q1.canonicalize(), 1);
        map.insert(q2.canonicalize(), 2);
        map.insert(q1.canonicalize(), 3); // same key, overwritten
        assert_eq!(map.len(), 2);
        assert_eq!(map[&q1.canonicalize()], 3);
    }

    #[test]
    fn is_canonical_detects_sorted_deduped_lists() {
        let a = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        let b = Predicate::eq(AttrId(1), Value::cat("Camry"));
        assert!(SelectionQuery::all().is_canonical());
        assert!(SelectionQuery::new(vec![a.clone()]).is_canonical());
        assert!(SelectionQuery::new(vec![a.clone(), b.clone()]).is_canonical());
        assert!(!SelectionQuery::new(vec![b.clone(), a.clone()]).is_canonical());
        assert!(!SelectionQuery::new(vec![a.clone(), a.clone()]).is_canonical());
        // The fast path returns the same value as the sort path.
        let unsorted = SelectionQuery::new(vec![b.clone(), a.clone()]);
        let canon = unsorted.canonicalize();
        assert!(canon.is_canonical());
        assert_eq!(canon.canonicalize(), canon);
    }

    #[test]
    fn stable_hash_is_canonical_and_discriminating() {
        let a = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        let b = Predicate::eq(AttrId(1), Value::cat("Camry"));
        let c = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Ge,
            value: Value::num(5000.0),
        };
        // Permuted/duplicated conjuncts hash equal; different queries
        // hash apart (structurally, with overwhelming probability).
        let q1 = SelectionQuery::new(vec![c.clone(), a.clone(), b.clone(), a.clone()]);
        let q2 = SelectionQuery::new(vec![b.clone(), c.clone(), a.clone()]);
        assert_eq!(q1.stable_hash(), q2.stable_hash());
        assert_eq!(q1.stable_hash(), q1.canonicalize().stable_hash());
        assert_ne!(
            SelectionQuery::new(vec![a.clone()]).stable_hash(),
            SelectionQuery::new(vec![b]).stable_hash()
        );
        // Domain tags keep Cat("1") and Num(1) structurally distinct.
        assert_ne!(
            SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("1"))]).stable_hash(),
            SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::num(1.0))]).stable_hash()
        );
        // NaN payloads collapse exactly as canonicalization does.
        let nan = |v: f64| {
            SelectionQuery::new(vec![Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(v),
            }])
        };
        assert_eq!(nan(f64::NAN).stable_hash(), nan(-f64::NAN).stable_hash());
    }

    #[test]
    fn nan_values_still_canonicalize_deterministically() {
        let p = |v: f64| Predicate {
            attr: AttrId(3),
            op: PredicateOp::Lt,
            value: Value::num(v),
        };
        // All NaN payloads collapse to one canonical value, so two probes
        // built from different NaNs share a cache key.
        let q1 = SelectionQuery::new(vec![p(f64::NAN)]);
        let q2 = SelectionQuery::new(vec![p(-f64::NAN)]);
        assert_eq!(q1.canonicalize(), q2.canonicalize());
    }

    #[test]
    fn imprecise_query_builder_validates() {
        let s = schema();
        let q = ImpreciseQuery::builder(&s)
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .like("Price", Value::num(10000.0))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(q.bound_attrs(), vec![AttrId(1), AttrId(3)]);
        assert_eq!(q.value_for(AttrId(3)), Some(&Value::num(10000.0)));
        assert_eq!(q.value_for(AttrId(0)), None);

        assert!(ImpreciseQuery::builder(&s)
            .like("Engine", Value::cat("V6"))
            .is_err());
        assert!(ImpreciseQuery::builder(&s)
            .like("Price", Value::cat("cheap"))
            .is_err());
        assert!(matches!(
            ImpreciseQuery::builder(&s).build(),
            Err(CatalogError::EmptyQuery)
        ));
    }

    #[test]
    fn base_query_tightens_like_to_equality() {
        let s = schema();
        let q = ImpreciseQuery::builder(&s)
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .like("Price", Value::num(10000.0))
            .unwrap()
            .build()
            .unwrap();
        let base = q.to_base_query();
        assert!(base.matches(&tuple("Toyota", "Camry", 2000.0, 10000.0)));
        assert!(!base.matches(&tuple("Toyota", "Camry", 2000.0, 10500.0)));
        assert!(base.predicates().iter().all(|p| p.op == PredicateOp::Eq));
    }

    #[test]
    fn imprecise_from_tuple_round_trip() {
        let t = tuple("Toyota", "Camry", 2000.0, 10000.0);
        let q = ImpreciseQuery::from_tuple(&t).unwrap();
        assert_eq!(q.bindings().len(), 4);
        assert!(q.to_base_query().matches(&t));
    }

    #[test]
    fn displays() {
        let s = schema();
        let q = ImpreciseQuery::builder(&s)
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(q.display_with(&s).to_string(), "Q(Model like Camry)");
        let base = q.to_base_query();
        assert_eq!(base.display_with(&s).to_string(), "σ(Model=Camry)");
    }
}
