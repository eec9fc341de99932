//! Selection evaluation over the relation's indexes: drive each query
//! from its smallest term, then verify the rest against the raw columns.
//!
//! Algorithm 1 answers one imprecise query with a precise selection per
//! relaxation step, and each step's answer is usually a handful of rows.
//! [`execute_query`] therefore never builds a predicate's full row list.
//! Each attribute's predicate group resolves to a *term* whose exact row
//! count is known in O(1) or O(log n), before any row id is copied:
//!
//! * a categorical equality resolves to its inverted-index posting list
//!   (ascending row ids by construction), sized by its length;
//! * an attribute's numeric bounds resolve, via `partition_point` over the
//!   value-sorted index, to a band of positions, sized by its width.
//!
//! Only the smallest term, the *driver*, is walked. Each of its rows is
//! kept when every other term admits it, read from the raw columns
//! (`Column::codes`, `Column::numbers`); a band's survivors are then
//! sorted into row order. Every predicate class resolves exactly (see
//! [`resolve`]), so results are byte-identical to a full scan.
//!
//! [`PlanExecutor`] is the earlier shared-plan evaluator. It memoizes
//! terms and galloping-intersection prefixes across one plan's queries.
//! No source runs it any more: per-query driving measured faster than
//! plan sharing. It stays for the `postings` experiment and the benchmark
//! that meter its sharing, and it materialises its terms through the same
//! [`resolve`], so the exactness table exists once. [`ExecStats`] meters
//! the sharing.

use std::borrow::Cow;
use std::collections::BTreeMap;

use aimq_catalog::{AttrId, Domain, Predicate, PredicateOp, SelectionQuery};

use crate::{Relation, RowId};

/// Intersect two ascending, duplicate-free row-id lists by galloping
/// (exponential search) through the larger one.
///
/// For each element of the smaller list the cursor in the larger list
/// advances by doubling probes followed by a binary search inside the
/// overshot window, so the cost is `O(m · log(n/m))` — near-linear in
/// the smaller list when the lists' densities differ, degrading
/// gracefully to a merge when they are similar.
pub fn intersect_gallop(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut rest = large;
    for &x in small {
        if rest.is_empty() {
            break;
        }
        // Gallop: double the probe width until the window's last element
        // reaches `x` (or the list ends), then binary-search the window.
        let mut width = 1usize;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "width starts at 1 and only doubles, so width - 1 cannot underflow"
        )]
        while rest.get(width - 1).is_some_and(|&y| y < x) {
            width <<= 1;
        }
        let window = rest.get(..width.min(rest.len())).unwrap_or(rest);
        let skip = window.partition_point(|&y| y < x);
        rest = rest.get(skip..).unwrap_or(&[]);
        if let Some(&y) = rest.first() {
            if y == x {
                out.push(x);
                rest = rest.get(1..).unwrap_or(&[]);
            }
        }
    }
    out
}

/// Sharing meters of a [`PlanExecutor`]: how much term and intersection
/// work the plan's queries shared. `prefix_memo_hits` growing while
/// `intersections_computed` stands still is the executor-level proof
/// that a repeated subexpression — the `Qpr` base intersection above
/// all — was evaluated exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Queries evaluated through [`PlanExecutor::execute`].
    pub queries_executed: u64,
    /// Per-attribute terms materialized into posting lists (term-memo
    /// misses).
    pub terms_evaluated: u64,
    /// Terms answered by the term memo without re-evaluation.
    pub term_memo_hits: u64,
    /// Pairwise intersections actually computed (prefix-memo misses).
    pub intersections_computed: u64,
    /// Fold prefixes answered by the shared-prefix memo — subexpressions
    /// (including whole queries) this plan did *not* re-evaluate.
    pub prefix_memo_hits: u64,
}

/// Evaluates the queries of one relaxation plan over a shared
/// subexpression DAG.
///
/// Each query canonicalizes into per-attribute predicate groups
/// ("terms") folded in ascending attribute order. Two memo layers make
/// the plan's overlap free:
///
/// 1. **Term memo** — a term (one attribute's full predicate group)
///    evaluates to a posting list once, however many queries contain it.
/// 2. **Prefix memo** — every fold prefix `t₁ ∩ t₂ ∩ … ∩ tᵢ` is
///    memoized under its term-id sequence. Queries sharing a prefix
///    (every relaxed query shares its leading terms with the base
///    query) reuse the stored intersection and only intersect their
///    delta; a query whose full term sequence was already folded — the
///    base query re-probed, or a duplicate plan entry — costs nothing.
///
/// Lists live in an arena; memo values are arena indexes, so sharing a
/// subexpression never copies it. The executor borrows its relation and
/// is scoped to one plan — cross-plan caching belongs to
/// [`crate::CachedWebDb`] at the source boundary.
#[derive(Debug)]
pub struct PlanExecutor<'a> {
    relation: &'a Relation,
    /// Arena of evaluated row lists (terms and intersections).
    arena: Vec<Vec<RowId>>,
    /// Term memo: canonical per-attribute predicate group → arena index.
    terms: BTreeMap<Vec<Predicate>, usize>,
    /// Prefix memo: term arena-index sequence (canonical fold order) →
    /// arena index of the intersection.
    prefixes: BTreeMap<Vec<usize>, usize>,
    stats: ExecStats,
}

impl<'a> PlanExecutor<'a> {
    /// An executor over `relation` with empty memos.
    pub fn new(relation: &'a Relation) -> Self {
        PlanExecutor {
            relation,
            arena: Vec::new(),
            terms: BTreeMap::new(),
            prefixes: BTreeMap::new(),
            stats: ExecStats::default(),
        }
    }

    /// The sharing meters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Evaluate one selection, returning matching row ids in ascending
    /// order — byte-identical to a full scan with
    /// [`SelectionQuery::matches`].
    pub fn execute(&mut self, query: &SelectionQuery) -> Vec<RowId> {
        self.stats.queries_executed = self.stats.queries_executed.saturating_add(1);

        // Canonical per-attribute term grouping: ascending attribute
        // order aligns fold prefixes across the plan's queries.
        let mut groups: BTreeMap<AttrId, Vec<Predicate>> = BTreeMap::new();
        for p in query.canonicalize().predicates() {
            groups.entry(p.attr).or_default().push(p.clone());
        }
        if groups.is_empty() {
            // No predicates: every row matches.
            return self.relation.rows().collect();
        }

        let mut prefix: Vec<usize> = Vec::with_capacity(groups.len());
        let mut current: Option<usize> = None;
        for (_, group) in groups {
            let term = self.term_list(group);
            prefix.push(term);
            current = Some(match self.prefixes.get(&prefix) {
                Some(&idx) => {
                    self.stats.prefix_memo_hits = self.stats.prefix_memo_hits.saturating_add(1);
                    idx
                }
                None => {
                    let idx = match current {
                        // A one-term prefix *is* its term: alias, don't copy.
                        None => term,
                        Some(acc) => {
                            self.stats.intersections_computed =
                                self.stats.intersections_computed.saturating_add(1);
                            let merged = intersect_gallop(
                                self.arena.get(acc).map_or(&[], Vec::as_slice),
                                self.arena.get(term).map_or(&[], Vec::as_slice),
                            );
                            let idx = self.arena.len();
                            self.arena.push(merged);
                            idx
                        }
                    };
                    self.prefixes.insert(prefix.clone(), idx);
                    idx
                }
            });
        }
        current
            .and_then(|idx| self.arena.get(idx))
            .cloned()
            .unwrap_or_default()
    }

    /// Arena index of the evaluated term for one attribute's canonical
    /// predicate group, via the term memo.
    fn term_list(&mut self, group: Vec<Predicate>) -> usize {
        if let Some(&idx) = self.terms.get(&group) {
            self.stats.term_memo_hits = self.stats.term_memo_hits.saturating_add(1);
            return idx;
        }
        self.stats.terms_evaluated = self.stats.terms_evaluated.saturating_add(1);
        let rows =
            resolve(self.relation, &group).map_or_else(Vec::new, |term| term.rows_where(|_| true));
        let idx = self.arena.len();
        self.arena.push(rows);
        self.terms.insert(group, idx);
        idx
    }
}

/// Evaluate one selection, returning matching row ids in ascending
/// order — byte-identical to a full scan with
/// [`SelectionQuery::matches`].
///
/// Resolves every attribute's predicate group into a term, returns
/// empty as soon as one is provably empty, and materialises only the rows
/// of the smallest term that every other term admits.
pub fn execute_query(relation: &Relation, query: &SelectionQuery) -> Vec<RowId> {
    let canonical = if query.is_canonical() {
        Cow::Borrowed(query)
    } else {
        Cow::Owned(query.canonicalize())
    };
    let predicates = canonical.predicates();
    if predicates.is_empty() {
        // No predicates: every row matches.
        return relation.rows().collect();
    }
    // Canonical order sorts by attribute first, so each attribute's
    // predicates form one contiguous group.
    let Some(mut terms) = predicates
        .chunk_by(|a, b| a.attr == b.attr)
        .map(|group| resolve(relation, group))
        .collect::<Option<Vec<Term>>>()
    else {
        return Vec::new();
    };
    let Some((smallest, _)) = terms.iter().enumerate().min_by_key(|(_, term)| term.len()) else {
        return Vec::new();
    };
    let driver = terms.swap_remove(smallest);
    driver.rows_where(|row| terms.iter().all(|term| term.admits(row)))
}

/// One attribute's predicate group resolved against a relation: an exact
/// row set whose size is known before any row id is copied.
#[derive(Debug)]
enum Term<'a> {
    /// Categorical equality: the rows whose dictionary code is `code`.
    Code {
        /// The attribute's raw codes, one per row.
        codes: &'a [u32],
        code: u32,
        /// The code's posting list, ascending.
        rows: &'a [RowId],
    },
    /// Numeric bounds: the rows whose number satisfies every predicate in
    /// `bounds`, which are exactly the rows of `band`.
    Band {
        /// The attribute's raw numbers, one per row (`NaN` for null).
        numbers: &'a [f64],
        bounds: &'a [Predicate],
        /// The matching slice of the value-sorted index.
        band: &'a [(f64, RowId)],
    },
}

impl Term<'_> {
    /// Exact number of rows in the term.
    fn len(&self) -> usize {
        match self {
            Term::Code { rows, .. } => rows.len(),
            Term::Band { band, .. } => band.len(),
        }
    }

    /// The term's rows that `keep` admits, in ascending order. A band
    /// comes in value order, so its survivors are sorted.
    fn rows_where(&self, keep: impl Fn(RowId) -> bool) -> Vec<RowId> {
        match self {
            Term::Code { rows, .. } => rows.iter().copied().filter(|&row| keep(row)).collect(),
            Term::Band { band, .. } => {
                let mut rows: Vec<RowId> = band
                    .iter()
                    .map(|&(_, row)| row)
                    .filter(|&row| keep(row))
                    .collect();
                rows.sort_unstable();
                rows
            }
        }
    }

    /// Whether `row` belongs to the term, read from the raw column.
    fn admits(&self, row: RowId) -> bool {
        match *self {
            Term::Code { codes, code, .. } => codes.get(row as usize) == Some(&code),
            Term::Band {
                numbers, bounds, ..
            } => numbers.get(row as usize).is_some_and(|&x| {
                bounds
                    .iter()
                    .all(|p| p.value.as_num().is_some_and(|v| holds(p.op, x, v)))
            }),
        }
    }
}

/// `x op v` under IEEE comparisons: a `NaN` (null) `x` satisfies no
/// operator, and `-0.0` equals `0.0`, exactly as [`Predicate::matches`]
/// and `Value` equality decide on decoded values.
fn holds(op: PredicateOp, x: f64, v: f64) -> bool {
    match op {
        PredicateOp::Eq => x == v,
        PredicateOp::Lt => x < v,
        PredicateOp::Le => x <= v,
        PredicateOp::Gt => x > v,
        PredicateOp::Ge => x >= v,
    }
}

/// Resolve one attribute's predicate group (non-empty, one attribute) to
/// its [`Term`], or `None` when the group provably matches no row.
///
/// Exactness case analysis against [`Predicate::matches`]:
///
/// * attribute out of schema range → no tuple value → empty;
/// * null-valued predicate → null tuple values never satisfy anything
///   and non-null values never equal null → empty;
/// * **categorical attribute**: only `Eq` with a categorical value can
///   match (range operators and numeric constants fall to the `matches`
///   catch-all `false`); two different equality constants are
///   contradictory, and a value missing from the dictionary is held by
///   no row → empty; nulls are excluded from postings at build time and
///   their `NULL_CODE` equals no dictionary code;
/// * **numeric attribute**: only numeric constants can match; `NaN`
///   constants satisfy no IEEE comparison and equal no non-null decoded
///   value → empty; finite/infinite constants map to a position band
///   over the value-sorted (NaN-free) index via `partition_point`, with
///   `Eq v` the band `[first ≥ v, first > v)` — exact for `±0.0`
///   (IEEE comparisons are monotone over the `total_cmp` order and
///   collapse the zero pair exactly as `Value`'s equality does) and for
///   `±∞` (no `next_up` widening); an empty band → empty.
fn resolve<'a>(relation: &'a Relation, group: &'a [Predicate]) -> Option<Term<'a>> {
    let attr = group.first()?.attr;
    let attribute = relation.schema().attributes().get(attr.index())?;
    if group.iter().any(|p| p.value.is_null()) {
        return None;
    }
    let column = relation.column(attr);
    match attribute.domain() {
        Domain::Categorical => {
            let mut value: Option<&str> = None;
            for p in group {
                let (PredicateOp::Eq, Some(cat)) = (p.op, p.value.as_cat()) else {
                    return None;
                };
                if value.is_some_and(|v| v != cat) {
                    return None;
                }
                value = Some(cat);
            }
            let code = column.dictionary()?.code_of(value?)?;
            Some(Term::Code {
                codes: column.codes()?,
                code,
                rows: relation.rows_with_code(attr, code),
            })
        }
        Domain::Numeric => {
            let index = relation.numeric_sorted(attr);
            let mut start = 0usize;
            let mut end = index.len();
            for p in group {
                let v = p.value.as_num().filter(|v| !v.is_nan())?;
                // `partition_point` with IEEE comparisons: monotone over
                // the NaN-free `total_cmp` order, exact at ±0.0 and ±∞.
                match p.op {
                    PredicateOp::Ge => start = start.max(index.partition_point(|&(x, _)| x < v)),
                    PredicateOp::Gt => start = start.max(index.partition_point(|&(x, _)| x <= v)),
                    PredicateOp::Lt => end = end.min(index.partition_point(|&(x, _)| x < v)),
                    PredicateOp::Le => end = end.min(index.partition_point(|&(x, _)| x <= v)),
                    PredicateOp::Eq => {
                        start = start.max(index.partition_point(|&(x, _)| x < v));
                        end = end.min(index.partition_point(|&(x, _)| x <= v));
                    }
                }
            }
            let band = index.get(start..end).filter(|band| !band.is_empty())?;
            Some(Term::Band {
                numbers: column.numbers()?,
                bounds: group,
                band,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::{Schema, Tuple, Value};
    use proptest::prelude::*;

    #[test]
    fn gallop_intersection_basics() {
        assert_eq!(intersect_gallop(&[], &[1, 2, 3]), Vec::<RowId>::new());
        assert_eq!(intersect_gallop(&[1, 2, 3], &[]), Vec::<RowId>::new());
        assert_eq!(
            intersect_gallop(&[1, 3, 5], &[2, 4, 6]),
            Vec::<RowId>::new()
        );
        assert_eq!(intersect_gallop(&[1, 2, 3], &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(
            intersect_gallop(&[2, 4, 9, 100], &[0, 2, 5, 9, 10, 11, 12, 99, 100, 101]),
            vec![2, 9, 100]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn gallop_matches_reference_intersection(
            a in prop::collection::vec(0u32..200, 0..80),
            b in prop::collection::vec(0u32..200, 0..80),
        ) {
            let (mut a, mut b) = (a, b);
            a.sort_unstable(); a.dedup();
            b.sort_unstable(); b.dedup();
            let expect: Vec<RowId> = a.iter().copied().filter(|x| b.contains(x)).collect();
            prop_assert_eq!(intersect_gallop(&a, &b), expect);
        }
    }

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

    fn scan(r: &Relation, q: &SelectionQuery) -> Vec<RowId> {
        r.rows().filter(|&i| q.matches(&r.tuple(i))).collect()
    }

    #[test]
    fn executor_matches_scan_on_mixed_queries() {
        let r = relation();
        let queries = [
            SelectionQuery::all(),
            SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))]),
            SelectionQuery::new(vec![
                Predicate::eq(AttrId(0), Value::cat("Toyota")),
                Predicate::eq(AttrId(1), Value::cat("Camry")),
            ]),
            SelectionQuery::new(vec![
                Predicate::eq(AttrId(0), Value::cat("Honda")),
                Predicate {
                    attr: AttrId(3),
                    op: PredicateOp::Ge,
                    value: Value::num(7000.0),
                },
                Predicate {
                    attr: AttrId(3),
                    op: PredicateOp::Lt,
                    value: Value::num(11000.0),
                },
            ]),
            // Contradictions and type mismatches are exactly empty.
            SelectionQuery::new(vec![
                Predicate::eq(AttrId(0), Value::cat("Toyota")),
                Predicate::eq(AttrId(0), Value::cat("Honda")),
            ]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(2), Value::cat("2000"))]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::num(1.0))]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(99), Value::cat("x"))]),
            SelectionQuery::new(vec![Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(f64::NAN),
            }]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(3), Value::Null)]),
        ];
        let mut exec = PlanExecutor::new(&r);
        for q in &queries {
            // Out-of-schema attributes would panic the scan; they are
            // exactly empty by the executor's contract.
            let expect = if q.predicates().iter().all(|p| p.attr.index() < 4) {
                scan(&r, q)
            } else {
                Vec::new()
            };
            assert_eq!(exec.execute(q), expect, "query {q:?}");
            assert_eq!(execute_query(&r, q), expect, "one-shot {q:?}");
        }
    }

    #[test]
    fn shared_plan_evaluates_base_intersection_exactly_once() {
        let r = relation();
        let base = SelectionQuery::new(vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            Predicate::eq(AttrId(1), Value::cat("Camry")),
            Predicate::eq(AttrId(2), Value::num(2000.0)),
        ]);
        // Algorithm 1's plan shape: the base query, then relaxations
        // dropping one attribute each, then the base query again (a
        // re-probe after relaxation — the redundancy the DAG absorbs).
        let plan = [
            base.clone(),
            base.relax(&[AttrId(2)]),
            base.relax(&[AttrId(1)]),
            base.relax(&[AttrId(0)]),
            base.clone(),
        ];
        let mut exec = PlanExecutor::new(&r);
        let results: Vec<Vec<RowId>> = plan.iter().map(|q| exec.execute(q)).collect();
        for (q, rows) in plan.iter().zip(&results) {
            assert_eq!(rows, &scan(&r, q));
        }
        assert_eq!(results[0], results[4], "re-probed base identical");

        let stats = exec.stats();
        assert_eq!(stats.queries_executed, 5);
        // Three distinct terms: Make, Model, Year.
        assert_eq!(stats.terms_evaluated, 3);
        // Intersections: base folds Make∩Model then ∩Year (2);
        // relax(Year) = Make∩Model is a prefix hit; relax(Model) folds
        // Make∩Year (1); relax(Make) folds Model∩Year (1); the re-probed
        // base is a pure prefix hit. The base intersection was computed
        // exactly once.
        assert_eq!(stats.intersections_computed, 4);
        let before = stats.prefix_memo_hits;
        let again = exec.execute(&base);
        assert_eq!(again, results[0]);
        let after = exec.stats();
        assert_eq!(
            after.intersections_computed, 4,
            "re-probing Qpr computes nothing new"
        );
        assert!(after.prefix_memo_hits > before);
    }

    #[test]
    fn permuted_and_duplicated_predicates_share_terms() {
        let r = relation();
        let a = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        let b = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Lt,
            value: Value::num(9000.0),
        };
        let q1 = SelectionQuery::new(vec![a.clone(), b.clone()]);
        let q2 = SelectionQuery::new(vec![b.clone(), a.clone(), a.clone()]);
        let mut exec = PlanExecutor::new(&r);
        let r1 = exec.execute(&q1);
        let r2 = exec.execute(&q2);
        assert_eq!(r1, r2);
        assert_eq!(r1, scan(&r, &q1));
        let stats = exec.stats();
        assert_eq!(stats.terms_evaluated, 2, "permutation shares both terms");
        assert_eq!(stats.intersections_computed, 1);
        assert_eq!(stats.prefix_memo_hits, 2, "q2 is a whole-prefix replay");
    }

    #[test]
    fn numeric_edge_values_are_exact() {
        let schema = Schema::builder("R").numeric("X").build().unwrap();
        let values = [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, f64::INFINITY];
        let tuples: Vec<Tuple> = values
            .iter()
            .map(|&v| Tuple::new(&schema, vec![Value::num(v)]).unwrap())
            .collect();
        let r = Relation::from_tuples(schema, &tuples).unwrap();
        for op in [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
        ] {
            for &v in &values {
                let q = SelectionQuery::new(vec![Predicate {
                    attr: AttrId(0),
                    op,
                    value: Value::num(v),
                }]);
                assert_eq!(
                    execute_query(&r, &q),
                    scan(&r, &q),
                    "op {op:?} constant {v}"
                );
            }
        }
    }

    /// Make, X and Y over signed zeros, infinities and null (`NaN`)
    /// numbers, for the driver-path tests below.
    fn edge_relation() -> Relation {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("X")
            .numeric("Y")
            .build()
            .unwrap();
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let rows = [
            ("Toyota", 1.0, nan),
            ("Toyota", nan, 2.0),
            ("Honda", -0.0, 3.0),
            ("Toyota", 0.0, nan),
            ("Ford", inf, 1.0),
            ("Toyota", -inf, 0.0),
            ("Honda", nan, -0.0),
            ("Toyota", 5.0, inf),
            ("Toyota", 0.0, 2.0),
            ("Ford", -1.0, -inf),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(make, x, y)| {
                Tuple::new(
                    &schema,
                    vec![Value::cat(make), Value::num(x), Value::num(y)],
                )
                .unwrap()
            })
            .collect();
        Relation::from_tuples(schema, &tuples).unwrap()
    }

    fn bound(attr: usize, op: PredicateOp, v: f64) -> Predicate {
        Predicate {
            attr: AttrId(attr),
            op,
            value: Value::num(v),
        }
    }

    /// The exact size of each attribute's term in `predicates`, in
    /// attribute order (`None` for a provably empty group): the driver is
    /// the first smallest.
    fn term_lens(r: &Relation, predicates: Vec<Predicate>) -> Vec<Option<usize>> {
        let q = SelectionQuery::new(predicates).canonicalize();
        q.predicates()
            .chunk_by(|a, b| a.attr == b.attr)
            .map(|group| resolve(r, group).map(|term| term.len()))
            .collect()
    }

    /// Run `predicates` through the driver path and the naive scan, and
    /// return the (equal) rows.
    fn driven(r: &Relation, predicates: Vec<Predicate>) -> Vec<RowId> {
        let q = SelectionQuery::new(predicates);
        let rows = execute_query(r, &q);
        assert_eq!(rows, scan(r, &q), "query {q:?}");
        rows
    }

    #[test]
    fn numeric_driver_skips_null_rows() {
        let r = edge_relation();
        let toyota = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        // X ≥ 0.5 is a 3-row band (1, 5, +∞); Toyota holds 6 rows.
        let query = vec![toyota.clone(), bound(1, PredicateOp::Ge, 0.5)];
        assert_eq!(term_lens(&r, query.clone()), vec![Some(6), Some(3)]);
        assert_eq!(driven(&r, query), vec![0, 7]);
        // A band over every non-null X drives past a wider Y band and
        // filters out the rows whose Y is null.
        let query = vec![
            bound(1, PredicateOp::Gt, f64::NEG_INFINITY),
            bound(2, PredicateOp::Ge, f64::NEG_INFINITY),
        ];
        assert_eq!(term_lens(&r, query.clone()), vec![Some(7), Some(8)]);
        assert_eq!(driven(&r, query), vec![2, 4, 7, 8, 9]);
    }

    #[test]
    fn categorical_driver_filters_at_signed_zero_and_infinity() {
        let r = edge_relation();
        let bounds = [
            bound(1, PredicateOp::Ge, 0.0),
            bound(1, PredicateOp::Le, -0.0),
            bound(1, PredicateOp::Eq, 0.0),
            bound(1, PredicateOp::Lt, f64::INFINITY),
            bound(1, PredicateOp::Le, f64::INFINITY),
            bound(1, PredicateOp::Gt, f64::NEG_INFINITY),
            bound(1, PredicateOp::Ge, f64::NEG_INFINITY),
        ];
        for make in ["Honda", "Ford"] {
            for b in &bounds {
                let query = vec![Predicate::eq(AttrId(0), Value::cat(make)), b.clone()];
                let lens = term_lens(&r, query.clone());
                assert!(lens[0] <= lens[1], "{make} drives {b:?}: {lens:?}");
                driven(&r, query);
            }
        }
        // Spot checks: -0.0 passes `≥ 0.0` and `= 0.0`; +∞ fails `< +∞`;
        // the null X of row 6 passes nothing.
        let honda = Predicate::eq(AttrId(0), Value::cat("Honda"));
        let ford = Predicate::eq(AttrId(0), Value::cat("Ford"));
        assert_eq!(driven(&r, vec![honda.clone(), bounds[0].clone()]), vec![2]);
        assert_eq!(driven(&r, vec![honda, bounds[2].clone()]), vec![2]);
        assert_eq!(driven(&r, vec![ford, bounds[3].clone()]), vec![9]);
    }

    #[test]
    fn equality_band_drives() {
        let r = edge_relation();
        // X = -0.0 is the band of both zeros (rows 2, 3, 8).
        let query = vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            bound(1, PredicateOp::Eq, -0.0),
        ];
        assert_eq!(term_lens(&r, query.clone()), vec![Some(6), Some(3)]);
        assert_eq!(driven(&r, query), vec![3, 8]);
    }

    #[test]
    fn missing_dictionary_value_empties_a_matching_term() {
        let r = edge_relation();
        let matching = bound(1, PredicateOp::Ge, 0.0);
        assert!(!driven(&r, vec![matching.clone()]).is_empty());
        let query = vec![Predicate::eq(AttrId(0), Value::cat("BMW")), matching];
        assert_eq!(term_lens(&r, query.clone())[0], None);
        assert!(driven(&r, query).is_empty());
    }

    #[test]
    fn out_of_schema_attribute_empties_a_matching_term() {
        let r = edge_relation();
        let toyota = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        assert_eq!(driven(&r, vec![toyota.clone()]).len(), 6);
        // The naive scan would index past the tuple; the executor's
        // contract is exactly empty.
        for stray in [
            Predicate::eq(AttrId(9), Value::cat("Toyota")),
            bound(9, PredicateOp::Ge, 0.0),
        ] {
            let query = SelectionQuery::new(vec![toyota.clone(), stray]);
            assert!(execute_query(&r, &query).is_empty(), "{query:?}");
        }
    }
}
