use std::fmt;

use aimq_catalog::{AttrId, Schema};
use serde::{Deserialize, Serialize};

use crate::{AttrSet, MinedDependencies};

/// Errors from building an [`AttributeOrdering`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderingError {
    /// The schema has no attributes to order.
    EmptySchema,
    /// The mined dependencies were computed over a different arity than
    /// the schema.
    ArityMismatch {
        /// The schema's arity.
        schema: usize,
        /// The arity the dependencies were mined over.
        mined: usize,
    },
}

impl fmt::Display for OrderingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingError::EmptySchema => write!(f, "cannot order an empty schema"),
            OrderingError::ArityMismatch { schema, mined } => write!(
                f,
                "mined dependencies cover {mined} attributes but schema has {schema}"
            ),
        }
    }
}

impl std::error::Error for OrderingError {}

/// One step of the relaxation process: the set of attributes whose
/// constraints are dropped together. `level` is the number of attributes
/// relaxed (1 for single-attribute relaxation, 2 for pairs, ...).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelaxationStep {
    /// Attributes to relax simultaneously, in relaxation-order position.
    pub attrs: Vec<AttrId>,
    /// Size of the relaxed set.
    pub level: usize,
}

/// The paper's **Algorithm 2**: a total importance order over the schema's
/// attributes, derived purely from mined AFDs and approximate keys.
///
/// Construction:
/// 1. the best approximate key `AK` splits the schema into the *deciding*
///    group (members of `AK`) and the *dependent* group (everything else);
/// 2. each deciding attribute `k` gets weight
///    `Wtdecides(k) = Σ support(A→k′)/size(A)` over mined AFDs whose
///    antecedent contains `k`;
/// 3. each dependent attribute `j` gets weight
///    `Wtdepends(j) = Σ support(A→j)/size(A)` over mined AFDs with
///    consequent `j`;
/// 4. both groups are sorted ascending by weight and concatenated,
///    dependent group first — so the first attribute in
///    [`relaxation_order`](Self::relaxation_order) is the least important
///    and gets relaxed first.
///
/// The importance weight of an attribute (the paper's `Wimp`) is
/// `RelaxOrder(k)/count(attrs) × Wt(k)/ΣWt(group)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributeOrdering {
    schema: Schema,
    relax_order: Vec<AttrId>,
    importance: Vec<f64>,
    deciding: AttrSet,
    dependent: AttrSet,
    wt_decides: Vec<f64>,
    wt_depends: Vec<f64>,
}

impl AttributeOrdering {
    /// Run Algorithm 2 over mined dependencies, exactly as in the paper
    /// (no smoothing: attributes with no AFD evidence get weight 0).
    pub fn derive(schema: &Schema, mined: &MinedDependencies) -> Result<Self, OrderingError> {
        Self::derive_with_smoothing(schema, mined, 0.0)
    }

    /// Algorithm 2 with Laplace-smoothed weight shares:
    /// `share(k) = (Wt(k) + α) / (ΣWt + α·|group|)`.
    ///
    /// The paper's formula assigns `Wimp = 0` to any attribute that no
    /// mined AFD touches, which silently erases that attribute from every
    /// similarity computation. A small `α` (e.g. 0.1) keeps the mined
    /// ordering while letting evidence-free attributes contribute
    /// marginally; `α = 0` reproduces the paper exactly.
    pub fn derive_with_smoothing(
        schema: &Schema,
        mined: &MinedDependencies,
        alpha: f64,
    ) -> Result<Self, OrderingError> {
        let n = schema.arity();
        if n == 0 {
            return Err(OrderingError::EmptySchema);
        }
        if mined.n_attrs() != 0 && mined.n_attrs() != n {
            return Err(OrderingError::ArityMismatch {
                schema: n,
                mined: mined.n_attrs(),
            });
        }

        // Step 3-4: partition by the best approximate key. Without any
        // mined key every attribute is treated as dependent.
        let deciding = mined.best_key().map_or(AttrSet::EMPTY, |k| k.attrs);
        let dependent = AttrSet::from_attrs(schema.attr_ids()).difference(deciding);

        // Steps 5-10: weight accumulation.
        let mut wt_decides = vec![0.0; n];
        let mut wt_depends = vec![0.0; n];
        for afd in mined.afds() {
            let contribution = afd.support() / afd.lhs.len() as f64;
            #[expect(
                clippy::indexing_slicing,
                reason = "schema-sized weight table; AttrId is in-range by construction"
            )]
            let depends = &mut wt_depends[afd.rhs.index()];
            *depends += contribution;
            #[expect(
                clippy::indexing_slicing,
                reason = "schema-sized weight table; AttrId is in-range by construction"
            )]
            for a in afd.lhs.iter() {
                wt_decides[a.index()] += contribution;
            }
        }

        // Step 11: sort each group ascending by its weight; dependent
        // group relaxes first. Ties break on attribute id so the order is
        // deterministic.
        let sort_group = |set: AttrSet, weights: &[f64]| -> Vec<AttrId> {
            let mut attrs: Vec<AttrId> = set.iter().collect();
            attrs.sort_by(|&a, &b| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "schema-sized weight table; AttrId is in-range by construction"
                )]
                let wa = weights[a.index()];
                #[expect(
                    clippy::indexing_slicing,
                    reason = "schema-sized weight table; AttrId is in-range by construction"
                )]
                let wb = weights[b.index()];
                wa.total_cmp(&wb).then(a.cmp(&b))
            });
            attrs
        };
        let mut relax_order = sort_group(dependent, &wt_depends);
        relax_order.extend(sort_group(deciding, &wt_decides));

        // Wimp(k) = RelaxOrder(k)/count × Wt(k)/ΣWt(group), with optional
        // Laplace smoothing and a uniform fallback when a group's weights
        // sum to zero (no AFDs touching it).
        #[expect(
            clippy::indexing_slicing,
            reason = "schema-sized weight table; AttrId is in-range by construction"
        )]
        let sum_decides: f64 = deciding.iter().map(|a| wt_decides[a.index()]).sum();
        #[expect(
            clippy::indexing_slicing,
            reason = "schema-sized weight table; AttrId is in-range by construction"
        )]
        let sum_depends: f64 = dependent.iter().map(|a| wt_depends[a.index()]).sum();
        let mut importance = vec![0.0; n];
        for (pos, &attr) in relax_order.iter().enumerate() {
            let relax_order_k = (pos + 1) as f64; // 1-based position
            let (wt, sum, group_len) = if deciding.contains(attr) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "schema-sized weight table; AttrId is in-range by construction"
                )]
                let wt = wt_decides[attr.index()];
                (wt, sum_decides, deciding.len())
            } else {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "schema-sized weight table; AttrId is in-range by construction"
                )]
                let wt = wt_depends[attr.index()];
                (wt, sum_depends, dependent.len())
            };
            let smoothed_sum = sum + alpha * group_len as f64;
            let share = if smoothed_sum > 0.0 {
                (wt + alpha) / smoothed_sum
            } else if group_len > 0 {
                1.0 / group_len as f64
            } else {
                0.0
            };
            #[expect(
                clippy::indexing_slicing,
                reason = "schema-sized weight table; AttrId is in-range by construction"
            )]
            let slot = &mut importance[attr.index()];
            *slot = relax_order_k / n as f64 * share;
        }

        Ok(AttributeOrdering {
            schema: schema.clone(),
            relax_order,
            importance,
            deciding,
            dependent,
            wt_decides,
            wt_depends,
        })
    }

    /// A *query-driven* ordering, the alternative class of approaches the
    /// paper's conclusion contrasts with AIMQ's data-driven mining: "the
    /// importance of an attribute is decided by the frequency with which
    /// it appears in a user query" (Section 7, referring to the authors'
    /// earlier WIDM 2003 work).
    ///
    /// `query_log` is the multiset of bound-attribute sets of past
    /// queries. Importance is the attribute's binding frequency;
    /// relaxation order is ascending frequency (rarely-asked-for
    /// attributes are relaxed first). With an empty log this degenerates
    /// to [`AttributeOrdering::uniform`].
    pub fn from_query_log<'a, I>(schema: &Schema, query_log: I) -> Result<Self, OrderingError>
    where
        I: IntoIterator<Item = &'a [AttrId]>,
    {
        let n = schema.arity();
        if n == 0 {
            return Err(OrderingError::EmptySchema);
        }
        let mut counts = vec![0usize; n];
        let mut total_queries = 0usize;
        for bound in query_log {
            total_queries += 1;
            for &attr in bound {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "schema-sized weight table; AttrId is in-range by construction"
                )]
                if attr.index() < n {
                    counts[attr.index()] += 1;
                }
            }
        }
        if total_queries == 0 {
            return Self::uniform(schema);
        }

        let mut relax_order: Vec<AttrId> = schema.attr_ids().collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "schema-sized weight table; AttrId is in-range by construction"
        )]
        relax_order.sort_by(|&a, &b| counts[a.index()].cmp(&counts[b.index()]).then(a.cmp(&b)));

        let total_bindings: usize = counts.iter().sum();
        let importance: Vec<f64> = if total_bindings == 0 {
            vec![1.0 / n as f64; n]
        } else {
            counts
                .iter()
                .map(|&c| c as f64 / total_bindings as f64)
                .collect()
        };

        Ok(AttributeOrdering {
            schema: schema.clone(),
            relax_order,
            importance,
            deciding: AttrSet::EMPTY,
            dependent: AttrSet::from_attrs(schema.attr_ids()),
            wt_decides: vec![0.0; n],
            wt_depends: counts.iter().map(|&c| c as f64).collect(),
        })
    }

    /// A uniform ordering (schema order, equal importance) — the model
    /// `RandomRelax` and ROCK implicitly use ("give equal importance to
    /// all the attributes", Section 6.4).
    pub fn uniform(schema: &Schema) -> Result<Self, OrderingError> {
        let n = schema.arity();
        if n == 0 {
            return Err(OrderingError::EmptySchema);
        }
        Ok(AttributeOrdering {
            schema: schema.clone(),
            relax_order: schema.attr_ids().collect(),
            importance: vec![1.0 / n as f64; n],
            deciding: AttrSet::EMPTY,
            dependent: AttrSet::from_attrs(schema.attr_ids()),
            wt_decides: vec![0.0; n],
            wt_depends: vec![0.0; n],
        })
    }

    /// Reassemble an ordering from raw parts (model persistence). The
    /// parts must come from a previously constructed ordering; basic
    /// shape checks guard against corrupted input.
    pub fn from_raw_parts(
        schema: Schema,
        relax_order: Vec<AttrId>,
        importance: Vec<f64>,
        deciding: AttrSet,
        dependent: AttrSet,
        wt_decides: Vec<f64>,
        wt_depends: Vec<f64>,
    ) -> Result<Self, OrderingError> {
        let n = schema.arity();
        if n == 0 {
            return Err(OrderingError::EmptySchema);
        }
        let shapes_ok = relax_order.len() == n
            && importance.len() == n
            && wt_decides.len() == n
            && wt_depends.len() == n
            && relax_order.iter().all(|a| a.index() < n);
        if !shapes_ok {
            return Err(OrderingError::ArityMismatch {
                schema: n,
                mined: relax_order.len(),
            });
        }
        Ok(AttributeOrdering {
            schema,
            relax_order,
            importance,
            deciding,
            dependent,
            wt_decides,
            wt_depends,
        })
    }

    /// The schema this ordering covers.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Attributes in relaxation order: index 0 is relaxed first (least
    /// important).
    pub fn relaxation_order(&self) -> &[AttrId] {
        &self.relax_order
    }

    /// 1-based relaxation position of `attr` (the paper's
    /// `RelaxOrder(k)`).
    #[expect(
        clippy::expect_used,
        reason = "relax_order is a permutation of the schema's attributes; only an AttrId minted for a different schema can miss, a caller contract violation worth surfacing loudly"
    )]
    pub fn relax_position(&self, attr: AttrId) -> usize {
        self.relax_order
            .iter()
            .position(|&a| a == attr)
            .map(|p| p + 1)
            .expect("attribute belongs to ordering's schema")
    }

    /// Raw importance weight `Wimp(attr)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized weight table; AttrId is in-range by construction"
    )]
    pub fn importance(&self, attr: AttrId) -> f64 {
        self.importance[attr.index()]
    }

    /// Importance weights for a set of attributes, renormalized to sum to
    /// 1 — the form `Sim(Q, t)` needs (`Σ Wimp = 1` over the query's bound
    /// attributes, Section 5).
    pub fn normalized_importance(&self, attrs: &[AttrId]) -> Vec<f64> {
        let total: f64 = attrs.iter().map(|&a| self.importance(a)).sum();
        if total > 0.0 {
            attrs.iter().map(|&a| self.importance(a) / total).collect()
        } else if attrs.is_empty() {
            Vec::new()
        } else {
            vec![1.0 / attrs.len() as f64; attrs.len()]
        }
    }

    /// The deciding group (members of the chosen approximate key).
    pub fn deciding(&self) -> AttrSet {
        self.deciding
    }

    /// The dependent group.
    pub fn dependent(&self) -> AttrSet {
        self.dependent
    }

    /// `Wtdecides` for an attribute (0 when no AFD's antecedent holds it).
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized weight table; AttrId is in-range by construction"
    )]
    pub fn wt_decides(&self, attr: AttrId) -> f64 {
        self.wt_decides[attr.index()]
    }

    /// `Wtdepends` for an attribute (0 when it is no AFD's consequent).
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized weight table; AttrId is in-range by construction"
    )]
    pub fn wt_depends(&self, attr: AttrId) -> f64 {
        self.wt_depends[attr.index()]
    }

    /// The paper's greedy multi-attribute relaxation order for a given
    /// level: combinations of `level` relaxation positions in
    /// lexicographic position order, so with 1-attribute order
    /// `{a1, a3, a4, a2}` the 2-attribute order is
    /// `{a1a3, a1a4, a1a2, a3a4, a3a2, a4a2}` (Section 4).
    pub fn multi_attribute_order(&self, level: usize) -> Vec<Vec<AttrId>> {
        combinations_in_order(&self.relax_order, level)
    }

    /// The full relaxation schedule up to `max_level` attributes relaxed
    /// at once: all 1-attribute steps in order, then all 2-attribute
    /// steps, and so on. This is the query sequence `GuidedRelax` issues
    /// per base-set tuple.
    pub fn relaxation_sequence(&self, max_level: usize) -> Vec<RelaxationStep> {
        let mut steps = Vec::new();
        for level in 1..=max_level.min(self.relax_order.len()) {
            for attrs in self.multi_attribute_order(level) {
                steps.push(RelaxationStep { attrs, level });
            }
        }
        steps
    }
}

/// All size-`level` combinations of `order`, enumerated in lexicographic
/// order of their *positions* in `order` — the paper's greedy
/// multi-attribute relaxation pattern. Shared by `GuidedRelax` (which
/// restricts the order to a query's bound attributes) and
/// [`AttributeOrdering::multi_attribute_order`].
pub fn combinations_in_order(order: &[AttrId], level: usize) -> Vec<Vec<AttrId>> {
    let n = order.len();
    if level == 0 || level > n {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut indices: Vec<usize> = (0..level).collect();
    loop {
        #[expect(
            clippy::indexing_slicing,
            reason = "combination cursors stay below n by the rollover invariant"
        )]
        out.push(indices.iter().map(|&i| order[i]).collect());
        // next combination in lexicographic order
        let mut i = level;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            #[expect(
                clippy::indexing_slicing,
                reason = "combination cursors stay below n by the rollover invariant"
            )]
            if indices[i] != i + n - level {
                break;
            }
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "combination cursors stay below n by the rollover invariant"
        )]
        let cursor = &mut indices[i];
        *cursor += 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "combination cursors stay below n by the rollover invariant"
        )]
        for j in i + 1..level {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AKey, Afd, BucketConfig, EncodedRelation, MinedDependencies, TaneConfig};
    use aimq_catalog::{Schema, Tuple, Value};
    use aimq_relation::Relation;

    fn schema4() -> Schema {
        Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .categorical("C")
            .categorical("D")
            .build()
            .unwrap()
    }

    /// Hand-constructed mined set: key {C, D}; AFDs C→A (support .9),
    /// CD→B (support .8), A→B (support .6).
    fn hand_mined() -> MinedDependencies {
        MinedDependencies::from_parts(
            vec![
                Afd {
                    lhs: AttrSet::singleton(AttrId(2)),
                    rhs: AttrId(0),
                    error: 0.1,
                },
                Afd {
                    lhs: AttrSet::from_attrs([AttrId(2), AttrId(3)]),
                    rhs: AttrId(1),
                    error: 0.2,
                },
                Afd {
                    lhs: AttrSet::singleton(AttrId(0)),
                    rhs: AttrId(1),
                    error: 0.4,
                },
            ],
            vec![AKey {
                attrs: AttrSet::from_attrs([AttrId(2), AttrId(3)]),
                error: 0.05,
            }],
            4,
        )
    }

    #[test]
    fn partitions_by_best_key() {
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        assert_eq!(ord.deciding(), AttrSet::from_attrs([AttrId(2), AttrId(3)]));
        assert_eq!(ord.dependent(), AttrSet::from_attrs([AttrId(0), AttrId(1)]));
    }

    #[test]
    fn weights_match_hand_computation() {
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        // Wtdepends(A) = support(C→A)/1 = 0.9
        assert!((ord.wt_depends(AttrId(0)) - 0.9).abs() < 1e-12);
        // Wtdepends(B) = support(CD→B)/2 + support(A→B)/1 = 0.4 + 0.6 = 1.0
        assert!((ord.wt_depends(AttrId(1)) - 1.0).abs() < 1e-12);
        // Wtdecides(C) = 0.9/1 (C→A) + 0.8/2 (CD→B) = 1.3
        assert!((ord.wt_decides(AttrId(2)) - 1.3).abs() < 1e-12);
        // Wtdecides(D) = 0.8/2 = 0.4
        assert!((ord.wt_decides(AttrId(3)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn relaxation_order_dependent_then_deciding_ascending() {
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        // Dependent: A (0.9) < B (1.0); Deciding: D (0.4) < C (1.3).
        assert_eq!(
            ord.relaxation_order(),
            &[AttrId(0), AttrId(1), AttrId(3), AttrId(2)]
        );
        assert_eq!(ord.relax_position(AttrId(0)), 1);
        assert_eq!(ord.relax_position(AttrId(2)), 4);
    }

    #[test]
    fn importance_weights_follow_paper_formula() {
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        // Wimp(A) = (1/4) × (0.9/1.9)
        let expected_a = 0.25 * (0.9 / 1.9);
        assert!((ord.importance(AttrId(0)) - expected_a).abs() < 1e-12);
        // Wimp(C) = (4/4) × (1.3/1.7)
        let expected_c = 1.0 * (1.3 / 1.7);
        assert!((ord.importance(AttrId(2)) - expected_c).abs() < 1e-12);
        // The most important attribute (last relaxed) has the largest Wimp.
        let max_attr = (0..4)
            .map(AttrId)
            .max_by(|&a, &b| ord.importance(a).total_cmp(&ord.importance(b)))
            .unwrap();
        assert_eq!(max_attr, AttrId(2));
    }

    #[test]
    fn normalized_importance_sums_to_one() {
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        let attrs = [AttrId(0), AttrId(2)];
        let w = ord.normalized_importance(&attrs);
        assert_eq!(w.len(), 2);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Relative magnitudes preserved.
        assert!(w[1] > w[0]);
    }

    #[test]
    fn normalized_importance_uniform_fallback() {
        let ord = AttributeOrdering::uniform(&schema4()).unwrap();
        let w = ord.normalized_importance(&[AttrId(1), AttrId(2), AttrId(3)]);
        for x in w {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!(ord.normalized_importance(&[]).is_empty());
    }

    #[test]
    fn multi_attribute_order_matches_paper_example() {
        // Relaxation order {a1, a3, a4, a2} — build it via hand weights.
        // Our hand_mined gives order [A, B, D, C] = positions; the paper's
        // example is about the *pattern*: pairs in lexicographic position
        // order.
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        let pairs = ord.multi_attribute_order(2);
        let o = ord.relaxation_order();
        assert_eq!(
            pairs,
            vec![
                vec![o[0], o[1]],
                vec![o[0], o[2]],
                vec![o[0], o[3]],
                vec![o[1], o[2]],
                vec![o[1], o[3]],
                vec![o[2], o[3]],
            ]
        );
    }

    #[test]
    fn multi_attribute_order_edge_cases() {
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        assert!(ord.multi_attribute_order(0).is_empty());
        assert!(ord.multi_attribute_order(5).is_empty());
        let all = ord.multi_attribute_order(4);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].len(), 4);
        assert_eq!(ord.multi_attribute_order(3).len(), 4); // C(4,3)
    }

    #[test]
    fn relaxation_sequence_orders_levels() {
        let ord = AttributeOrdering::derive(&schema4(), &hand_mined()).unwrap();
        let seq = ord.relaxation_sequence(2);
        assert_eq!(seq.len(), 4 + 6);
        assert!(seq[..4].iter().all(|s| s.level == 1));
        assert!(seq[4..].iter().all(|s| s.level == 2));
        assert_eq!(seq[0].attrs, vec![AttrId(0)]);
    }

    #[test]
    fn query_log_ordering_follows_binding_frequency() {
        let schema = schema4();
        // D in 3 queries, C in 2, A in 1, B in 0.
        let q1 = [AttrId(3), AttrId(2)];
        let q2 = [AttrId(3), AttrId(2), AttrId(0)];
        let q3 = [AttrId(3)];
        let log: Vec<&[AttrId]> = vec![&q1, &q2, &q3];
        let ord = AttributeOrdering::from_query_log(&schema, log).unwrap();
        // Relax never-asked-for B first, most-asked-for D last.
        assert_eq!(ord.relaxation_order()[0], AttrId(1));
        assert_eq!(*ord.relaxation_order().last().unwrap(), AttrId(3));
        // Importance proportional to binding frequency: D = 3/6.
        assert!((ord.importance(AttrId(3)) - 0.5).abs() < 1e-12);
        assert_eq!(ord.importance(AttrId(1)), 0.0);
    }

    #[test]
    fn empty_query_log_degenerates_to_uniform() {
        let schema = schema4();
        let log: Vec<&[AttrId]> = Vec::new();
        let ord = AttributeOrdering::from_query_log(&schema, log).unwrap();
        for a in schema.attr_ids() {
            assert!((ord.importance(a) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn query_log_ignores_out_of_schema_attrs() {
        let schema = schema4();
        let q = [AttrId(0), AttrId(99)];
        let log: Vec<&[AttrId]> = vec![&q];
        let ord = AttributeOrdering::from_query_log(&schema, log).unwrap();
        assert!((ord.importance(AttrId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schema_is_error() {
        let schema = Schema::builder("R").build().unwrap();
        assert_eq!(
            AttributeOrdering::derive(&schema, &MinedDependencies::default()).unwrap_err(),
            OrderingError::EmptySchema
        );
    }

    #[test]
    fn no_mined_key_makes_everything_dependent() {
        let mined = MinedDependencies::from_parts(
            vec![Afd {
                lhs: AttrSet::singleton(AttrId(0)),
                rhs: AttrId(1),
                error: 0.1,
            }],
            vec![],
            4,
        );
        let ord = AttributeOrdering::derive(&schema4(), &mined).unwrap();
        assert!(ord.deciding().is_empty());
        assert_eq!(ord.dependent().len(), 4);
        assert_eq!(ord.relaxation_order().len(), 4);
        // B is the only attribute with dependence evidence → most
        // important of the dependent group, relaxed last.
        assert_eq!(*ord.relaxation_order().last().unwrap(), AttrId(1));
    }

    #[test]
    fn end_to_end_on_mined_relation() {
        // Model → Make exactly; (Model, Color) a key. Model should end up
        // more deciding than Make.
        let schema = Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .categorical("Color")
            .build()
            .unwrap();
        let rows = [
            ("Toyota", "Camry", "White"),
            ("Toyota", "Camry", "Black"),
            ("Toyota", "Corolla", "White"),
            ("Honda", "Accord", "Black"),
            ("Honda", "Accord", "White"),
            ("Honda", "Civic", "Red"),
            ("Ford", "Focus", "Red"),
            ("Ford", "Focus", "White"),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(mk, md, c)| {
                Tuple::new(&schema, vec![Value::cat(mk), Value::cat(md), Value::cat(c)]).unwrap()
            })
            .collect();
        let rel = Relation::from_tuples(schema.clone(), &tuples).unwrap();
        let enc = EncodedRelation::encode(&rel, &BucketConfig::for_schema(&schema));
        let mined = MinedDependencies::mine(&enc, &TaneConfig::default());
        let ord = AttributeOrdering::derive(&schema, &mined).unwrap();
        // Make is functionally determined by Model → Make is dependent and
        // relaxed before Model.
        assert!(ord.relax_position(AttrId(0)) < ord.relax_position(AttrId(1)));
        // Σ Wimp over all attrs of any subset normalizes to 1.
        let w = ord.normalized_importance(&[AttrId(0), AttrId(1), AttrId(2)]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
