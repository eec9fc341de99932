use aimq_afd::{combinations_in_order, AttributeOrdering};
use aimq_catalog::{AttrId, SelectionQuery};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One planned relaxation probe: the attributes whose constraints are
/// dropped simultaneously, and the relaxation *level* the strategy
/// assigns the step.
///
/// For the paper's strategies the level is simply the step size (level 1
/// drops one attribute, level 2 drops pairs, ...), but the two are not the
/// same concept: a strategy may revisit a single-attribute relaxation at a
/// deeper level of an escalation schedule. Abandonment accounting
/// (`DegradationReport::levels_abandoned`) follows the strategy-assigned
/// level, never the step size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxationStep {
    /// Attributes to drop simultaneously.
    pub attrs: Vec<AttrId>,
    /// The strategy's level for this step (1-based).
    pub level: usize,
}

impl RelaxationStep {
    /// A step under the paper's default level structure: the level is the
    /// number of attributes relaxed at once.
    pub fn of(attrs: Vec<AttrId>) -> Self {
        let level = attrs.len();
        RelaxationStep { attrs, level }
    }
}

/// One entry of a compiled probe plan: a [`RelaxationStep`] paired with
/// the canonical [`SelectionQuery`] the engine will issue for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedProbe {
    /// The relaxation step this probe realizes.
    pub step: RelaxationStep,
    /// The canonicalized relaxed query. May be *empty* (every predicate
    /// dropped); the engine skips empty probes, but they are kept here so
    /// plan indices line up 1:1 with the strategy's steps.
    pub query: SelectionQuery,
}

/// Compile a strategy's plan into the concrete query sequence Algorithm 1
/// will issue for one base tuple: each step's attributes are dropped from
/// `tuple_query` and the result canonicalized (the memo/cache key form).
///
/// This is the whole-plan view `WebDatabase::try_query_plan` consumes.
/// The probe cache answers a plan's hits in place and forwards its
/// misses as one sub-plan; the in-memory source answers a plan one probe
/// at a time.
pub fn compile_probes(tuple_query: &SelectionQuery, plan: &[RelaxationStep]) -> Vec<PlannedProbe> {
    plan.iter()
        .map(|step| PlannedProbe {
            step: step.clone(),
            query: tuple_query.relax(&step.attrs).canonicalize(),
        })
        .collect()
}

/// A query-relaxation strategy: given the bound attributes of a fully
/// bound tuple query, produce the ordered sequence of attribute subsets
/// whose constraints should be dropped, level by level (all 1-attribute
/// relaxations first, then pairs, ...).
///
/// Strategies may be stateful (`RandomRelax` draws a fresh random order
/// per base tuple), hence `&mut self`.
pub trait RelaxationStrategy {
    /// Relaxation steps for a tuple query binding `attrs`, up to subsets
    /// of `max_level` attributes. Each step is a set of attributes to
    /// drop *simultaneously*.
    fn steps(&mut self, attrs: &[AttrId], max_level: usize) -> Vec<Vec<AttrId>>;

    /// The annotated probe plan the engine executes: every step from
    /// [`RelaxationStrategy::steps`] plus the level the strategy assigns
    /// it. The default derives the level from the step size (the paper's
    /// definition); strategies with their own level structure override
    /// this so the engine's `levels_abandoned` accounting follows the
    /// strategy's levels rather than equating level with size.
    fn plan(&mut self, attrs: &[AttrId], max_level: usize) -> Vec<RelaxationStep> {
        self.steps(attrs, max_level)
            .into_iter()
            .map(RelaxationStep::of)
            .collect()
    }

    /// Human-readable name for reports ("GuidedRelax" / "RandomRelax").
    fn name(&self) -> &'static str;
}

/// The paper's **GuidedRelax**: relax in the AFD-derived importance order
/// (least important attribute first), extending to multi-attribute sets by
/// the greedy combination pattern of Section 4.
#[derive(Debug, Clone)]
pub struct GuidedRelax {
    ordering: AttributeOrdering,
}

impl GuidedRelax {
    /// Build from a mined attribute ordering.
    pub fn new(ordering: AttributeOrdering) -> Self {
        GuidedRelax { ordering }
    }

    /// The underlying ordering.
    pub fn ordering(&self) -> &AttributeOrdering {
        &self.ordering
    }
}

impl RelaxationStrategy for GuidedRelax {
    fn steps(&mut self, attrs: &[AttrId], max_level: usize) -> Vec<Vec<AttrId>> {
        // Restrict the global relaxation order to the attributes actually
        // bound by this tuple query, preserving relative positions.
        let order: Vec<AttrId> = self
            .ordering
            .relaxation_order()
            .iter()
            .copied()
            .filter(|a| attrs.contains(a))
            .collect();
        levels(&order, max_level)
    }

    fn name(&self) -> &'static str {
        "GuidedRelax"
    }
}

/// The paper's **RandomRelax** strawman: "mimics the random process by
/// which users would relax queries by arbitrarily picking attributes to
/// relax" (Section 6.1).
///
/// It issues the same *set* of relaxations as `GuidedRelax` (every proper
/// subset of up to `max_level` attributes) but in a uniformly random
/// order with **no level discipline** — a user arbitrarily relaxing
/// constraints may well drop three important attributes before trying the
/// gentlest single-attribute relaxation. Under early termination this is
/// exactly what makes RandomRelax extract hundreds of tuples per relevant
/// answer at high similarity thresholds (the paper's Figure 7) while
/// GuidedRelax's least-important-first order stays cheap (Figure 6).
#[derive(Debug)]
pub struct RandomRelax {
    rng: rand::rngs::StdRng,
}

impl RandomRelax {
    /// Build with a seed (experiments must be reproducible).
    pub fn new(seed: u64) -> Self {
        RandomRelax {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }
}

impl RelaxationStrategy for RandomRelax {
    fn steps(&mut self, attrs: &[AttrId], max_level: usize) -> Vec<Vec<AttrId>> {
        let mut order: Vec<AttrId> = attrs.to_vec();
        order.shuffle(&mut self.rng);
        let mut steps = levels(&order, max_level);
        steps.shuffle(&mut self.rng);
        steps
    }

    fn name(&self) -> &'static str {
        "RandomRelax"
    }
}

/// Shared level expansion: don't relax *every* bound attribute at once
/// (that step would match the whole database), so the last level is
/// capped at `len - 1` unless only one attribute is bound.
fn levels(order: &[AttrId], max_level: usize) -> Vec<Vec<AttrId>> {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "order.len() > 1 in the branch that subtracts 1"
    )]
    let cap = if order.len() > 1 {
        max_level.min(order.len() - 1)
    } else {
        0
    };
    let mut steps = Vec::new();
    for level in 1..=cap {
        steps.extend(combinations_in_order(order, level));
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_afd::{AKey, Afd, AttrSet, MinedDependencies};
    use aimq_catalog::Schema;

    fn ordering() -> AttributeOrdering {
        let schema = Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .categorical("C")
            .categorical("D")
            .build()
            .unwrap();
        let mined = MinedDependencies::from_parts(
            vec![
                Afd {
                    lhs: AttrSet::singleton(AttrId(2)),
                    rhs: AttrId(0),
                    error: 0.1,
                },
                Afd {
                    lhs: AttrSet::singleton(AttrId(2)),
                    rhs: AttrId(1),
                    error: 0.3,
                },
            ],
            vec![AKey {
                attrs: AttrSet::from_attrs([AttrId(2), AttrId(3)]),
                error: 0.0,
            }],
            4,
        );
        AttributeOrdering::derive(&schema, &mined).unwrap()
        // Dependent: {A (0.9), B (0.7)} → order B, A (ascending weight);
        // Deciding: {C (1.6), D (0.0)} → order D, C.
        // Relaxation order: [B, A, D, C].
    }

    #[test]
    fn guided_relax_follows_mined_order() {
        let mut g = GuidedRelax::new(ordering());
        let attrs: Vec<AttrId> = (0..4).map(AttrId).collect();
        let steps = g.steps(&attrs, 1);
        assert_eq!(
            steps,
            vec![
                vec![AttrId(1)],
                vec![AttrId(0)],
                vec![AttrId(3)],
                vec![AttrId(2)],
            ]
        );
    }

    #[test]
    fn guided_relax_restricts_to_bound_attrs() {
        let mut g = GuidedRelax::new(ordering());
        let steps = g.steps(&[AttrId(0), AttrId(2)], 2);
        // Order restricted to {A, C} → [A, C]; max level capped at 1
        // (relaxing both would unconstrain the query).
        assert_eq!(steps, vec![vec![AttrId(0)], vec![AttrId(2)]]);
    }

    #[test]
    fn multi_level_structure() {
        let mut g = GuidedRelax::new(ordering());
        let attrs: Vec<AttrId> = (0..4).map(AttrId).collect();
        let steps = g.steps(&attrs, 2);
        assert_eq!(steps.len(), 4 + 6);
        assert!(steps[..4].iter().all(|s| s.len() == 1));
        assert!(steps[4..].iter().all(|s| s.len() == 2));
        // First pair is the two least-important attributes.
        assert_eq!(steps[4], vec![AttrId(1), AttrId(0)]);
    }

    #[test]
    fn never_relaxes_everything() {
        let mut g = GuidedRelax::new(ordering());
        let attrs: Vec<AttrId> = (0..4).map(AttrId).collect();
        let steps = g.steps(&attrs, 10);
        assert!(steps.iter().all(|s| s.len() < attrs.len()));
        // Single bound attribute: nothing to relax at all.
        assert!(g.steps(&[AttrId(0)], 3).is_empty());
    }

    #[test]
    fn random_relax_is_seeded_and_varies_per_call() {
        let attrs: Vec<AttrId> = (0..4).map(AttrId).collect();
        let mut r1 = RandomRelax::new(42);
        let mut r2 = RandomRelax::new(42);
        let s1a = r1.steps(&attrs, 1);
        let s2a = r2.steps(&attrs, 1);
        assert_eq!(s1a, s2a, "same seed, same first draw");
        // Across multiple draws, the order changes at least once.
        let mut varied = false;
        let mut prev = s1a;
        for _ in 0..20 {
            let next = r1.steps(&attrs, 1);
            if next != prev {
                varied = true;
            }
            prev = next;
        }
        assert!(varied, "RandomRelax should reshuffle per base tuple");
    }

    #[test]
    fn random_relax_covers_all_levels() {
        let attrs: Vec<AttrId> = (0..4).map(AttrId).collect();
        let mut r = RandomRelax::new(7);
        let steps = r.steps(&attrs, 3);
        assert_eq!(steps.len(), 4 + 6 + 4);
        // Every step is a subset of the bound attributes, no duplicates
        // within a step.
        for step in &steps {
            let mut s = step.clone();
            s.sort();
            s.dedup();
            assert_eq!(s.len(), step.len());
            assert!(step.iter().all(|a| attrs.contains(a)));
        }
    }

    #[test]
    fn default_plan_levels_are_step_sizes() {
        let mut g = GuidedRelax::new(ordering());
        let attrs: Vec<AttrId> = (0..4).map(AttrId).collect();
        let plan = g.plan(&attrs, 2);
        let steps = GuidedRelax::new(ordering()).steps(&attrs, 2);
        assert_eq!(plan.len(), steps.len());
        for (p, s) in plan.iter().zip(&steps) {
            assert_eq!(&p.attrs, s);
            assert_eq!(p.level, s.len());
        }
    }

    #[test]
    fn strategies_may_assign_levels_independent_of_size() {
        // A strategy whose level structure is an escalation schedule:
        // every step drops one attribute, but each pass is a deeper level.
        struct Escalating;
        impl RelaxationStrategy for Escalating {
            fn steps(&mut self, attrs: &[AttrId], _max_level: usize) -> Vec<Vec<AttrId>> {
                attrs.iter().map(|&a| vec![a]).collect()
            }
            fn plan(&mut self, attrs: &[AttrId], max_level: usize) -> Vec<RelaxationStep> {
                self.steps(attrs, max_level)
                    .into_iter()
                    .enumerate()
                    .map(|(pass, attrs)| RelaxationStep {
                        attrs,
                        level: pass + 1,
                    })
                    .collect()
            }
            fn name(&self) -> &'static str {
                "Escalating"
            }
        }
        let plan = Escalating.plan(&[AttrId(0), AttrId(1), AttrId(2)], 3);
        assert!(plan.iter().all(|s| s.attrs.len() == 1));
        let levels: Vec<usize> = plan.iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![1, 2, 3], "same-size steps, distinct levels");
    }

    #[test]
    fn compile_probes_aligns_with_plan_and_canonicalizes() {
        use aimq_catalog::{Predicate, Value};
        let tuple_query = SelectionQuery::new(vec![
            Predicate::eq(AttrId(2), Value::cat("c")),
            Predicate::eq(AttrId(0), Value::cat("a")),
            Predicate::eq(AttrId(1), Value::cat("b")),
        ]);
        let plan = vec![
            RelaxationStep::of(vec![AttrId(1)]),
            RelaxationStep::of(vec![AttrId(0), AttrId(2)]),
            // Dropping everything leaves an empty query — kept in place.
            RelaxationStep::of(vec![AttrId(0), AttrId(1), AttrId(2)]),
        ];
        let probes = compile_probes(&tuple_query, &plan);
        assert_eq!(probes.len(), plan.len());
        for (probe, step) in probes.iter().zip(&plan) {
            assert_eq!(&probe.step, step);
            assert_eq!(probe.query, tuple_query.relax(&step.attrs).canonicalize());
            assert!(probe.query.is_canonical());
        }
        assert!(probes[2].query.predicates().is_empty());
        // The compiled query matches the engine's own relax+canonicalize
        // key form, so memo lookups and plan entries agree byte-for-byte.
        assert_eq!(probes[0].query.predicates().len(), 2);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(GuidedRelax::new(ordering()).name(), "GuidedRelax");
        assert_eq!(RandomRelax::new(1).name(), "RandomRelax");
    }
}
