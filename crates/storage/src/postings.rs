//! Posting-list set algebra and the shared relaxation-plan executor.
//!
//! Algorithm 1 compiles one imprecise query into dozens of heavily
//! overlapping relaxed selections: every relaxed query of a base tuple's
//! plan is the tuple query minus a few predicates, so consecutive plan
//! entries share almost all of their conjuncts. Evaluating each query
//! independently (one-shot, as [`execute_query`] does) re-pays the
//! shared work on every probe.
//!
//! This module evaluates selections as *set algebra over posting lists*:
//!
//! * every categorical equality predicate maps to its inverted-index
//!   posting list (ascending row ids by construction);
//! * every numeric attribute's combined range predicates map, via
//!   `partition_point` over the value-sorted index, to a position range
//!   answered row-id-sorted by the attribute's [`crate::FacetTree`];
//! * a conjunction is the galloping intersection of its per-attribute
//!   term lists, folded in ascending attribute order.
//!
//! Every predicate class reduces to an *exact* row set (type-mismatched,
//! non-equality-on-categorical and null/NaN-valued predicates are
//! provably empty), so no per-row verification pass remains and results
//! are byte-identical to a full scan.
//!
//! [`PlanExecutor`] adds the sharing layer: terms and every intersection
//! *prefix* (in the canonical attribute fold order) are memoized across
//! the queries of one plan, so the common base intersection `Qpr` is
//! evaluated exactly once and each relaxed query only pays its delta.
//! [`ExecStats`] meters the sharing for tests and benchmarks.

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

/// K-way merge union of ascending row-id lists into one ascending,
/// duplicate-free list.
pub fn union_kway(lists: &[&[RowId]]) -> Vec<RowId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut cursors = vec![0usize; lists.len()];
    let mut heap: BinaryHeap<Reverse<(RowId, usize)>> = lists
        .iter()
        .enumerate()
        .filter_map(|(i, list)| list.first().map(|&row| Reverse((row, i))))
        .collect();
    let mut out = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    while let Some(Reverse((row, i))) = heap.pop() {
        if out.last() != Some(&row) {
            out.push(row);
        }
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "a cursor stays at most its list's length, so c + 1 cannot wrap"
        )]
        let next = cursors.get(i).map_or(0, |&c| c + 1);
        if let Some(cursor) = cursors.get_mut(i) {
            *cursor = next;
        }
        if let Some(&row) = lists.get(i).and_then(|list| list.get(next)) {
            heap.push(Reverse((row, i)));
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
        let rows = evaluate_term(self.relation, &group);
        let idx = self.arena.len();
        self.arena.push(rows);
        self.terms.insert(group, idx);
        idx
    }
}

/// One-shot evaluation of a single selection through the postings path
/// (a throwaway [`PlanExecutor`]; plans should share one executor).
pub fn execute_query(relation: &Relation, query: &SelectionQuery) -> Vec<RowId> {
    PlanExecutor::new(relation).execute(query)
}

/// Evaluate one attribute's predicate group to its exact ascending row
/// set.
///
/// Exactness case analysis against [`Predicate::matches`]:
///
/// * attribute out of schema range → no tuple value → empty;
/// * null-valued predicate → null tuple values never satisfy anything
///   and non-null values never equal null → empty;
/// * **categorical attribute**: only `Eq` with a categorical value can
///   match (range operators and numeric constants fall to the `matches`
///   catch-all `false`); nulls are excluded from postings at build time,
///   two different equality constants are contradictory → empty;
/// * **numeric attribute**: only numeric constants can match; `NaN`
///   constants satisfy no IEEE comparison and equal no non-null decoded
///   value → empty; finite/infinite constants map to a position range
///   over the value-sorted (NaN-free) index via `partition_point`, with
///   `Eq v` the band `[first ≥ v, first > v)` — exact for `±0.0`
///   (IEEE comparisons are monotone over the `total_cmp` order and
///   collapse the zero pair exactly as `Value`'s equality does) and for
///   `±∞` (no `next_up` widening).
fn evaluate_term(relation: &Relation, group: &[Predicate]) -> Vec<RowId> {
    let Some(attribute) = relation
        .schema()
        .attributes()
        .get(group.first().map(|p| p.attr.index()).unwrap_or(usize::MAX))
    else {
        return Vec::new();
    };
    if group.iter().any(|p| p.value.is_null()) {
        return Vec::new();
    }
    match attribute.domain() {
        Domain::Categorical => {
            let mut value: Option<&str> = None;
            for p in group {
                let (PredicateOp::Eq, Some(cat)) = (p.op, p.value.as_cat()) else {
                    return Vec::new();
                };
                match value {
                    Some(v) if v != cat => return Vec::new(),
                    _ => value = Some(cat),
                }
            }
            let attr = group.first().map(|p| p.attr);
            match (attr, value) {
                (Some(attr), Some(cat)) => relation.rows_with_value(attr, cat).to_vec(),
                _ => Vec::new(),
            }
        }
        Domain::Numeric => {
            let Some(attr) = group.first().map(|p| p.attr) else {
                return Vec::new();
            };
            let index = relation.numeric_sorted(attr);
            let mut start = 0usize;
            let mut end = index.len();
            for p in group {
                let Some(v) = p.value.as_num() else {
                    return Vec::new();
                };
                if v.is_nan() {
                    return Vec::new();
                }
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
            if start >= end {
                return Vec::new();
            }
            match relation.facet_tree(attr) {
                Some(tree) => tree.rows_in_positions(start, end),
                None => {
                    // No tree (categorical attr can't reach here; defensive):
                    // sort the sliced positions directly.
                    let mut rows: Vec<RowId> = index
                        .get(start..end)
                        .unwrap_or(&[])
                        .iter()
                        .map(|&(_, row)| row)
                        .collect();
                    rows.sort_unstable();
                    rows
                }
            }
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

    #[test]
    fn union_kway_basics() {
        assert_eq!(union_kway(&[]), Vec::<RowId>::new());
        assert_eq!(union_kway(&[&[], &[]]), Vec::<RowId>::new());
        assert_eq!(union_kway(&[&[1, 3], &[2, 4]]), vec![1, 2, 3, 4]);
        assert_eq!(
            union_kway(&[&[1, 2, 3], &[2, 3, 4], &[0, 4]]),
            vec![0, 1, 2, 3, 4]
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

        #[test]
        fn union_matches_reference_union(
            lists in prop::collection::vec(prop::collection::vec(0u32..100, 0..30), 0..6),
        ) {
            let sorted: Vec<Vec<RowId>> = lists
                .iter()
                .map(|l| { let mut l = l.clone(); l.sort_unstable(); l.dedup(); l })
                .collect();
            let slices: Vec<&[RowId]> = sorted.iter().map(Vec::as_slice).collect();
            let mut expect: Vec<RowId> = sorted.iter().flatten().copied().collect();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(union_kway(&slices), expect);
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
}
