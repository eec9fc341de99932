//! **Posting-list executor — shared-plan work vs one-shot execution.**
//!
//! Not a figure of the paper, but its costing premise applied to the
//! *source side*: every relaxation plan AIMQ hands a source (Algorithm
//! 1, one plan per base tuple) is a family of conjunctive selections
//! that share almost everything — each relaxed query drops one
//! predicate from the same fully bound tuple query, and the base query
//! itself recurs across plans. A source that executes the plan through
//! the [`aimq_storage::PlanExecutor`] evaluates each distinct
//! per-attribute posting term once and each distinct conjunction prefix
//! once, instead of re-scanning per query.
//!
//! The workload mirrors the Figure 3/4 robustness experiments: CarDB at
//! the paper's sample sizes (15k/25k/50k and the full 100k relation),
//! with `n_plans` relaxation plans derived from randomly drawn base
//! tuples — each plan being the fully bound tuple query, every
//! single-attribute relaxation of it, and the base query repeated (as
//! overlapping per-tuple plans produce in practice).
//!
//! Reported per size:
//!
//! - **identity** — the shared executor, the one-shot posting path and
//!   a naive full scan return byte-identical row sets for every plan
//!   member;
//! - **sharing** — posting terms evaluated and intersections computed
//!   by the shared executor vs what the same plans cost one-shot, from
//!   the executor's own meters ([`aimq_storage::ExecStats`]).
//!
//! The counters are recorded in `results/BENCH_postings.json`. No
//! source runs the shared executor any more: `InMemoryWebDb` drives
//! each probe from its smallest term ([`aimq_storage::execute_query`]),
//! which measured faster than sharing. So these counters describe the
//! retired plan path, and probe wall time is measured end to end by
//! `perfbench/`.

use aimq_catalog::{AttrId, Predicate, SelectionQuery};
use aimq_data::CarDb;
use aimq_storage::{execute_rows, PlanExecutor, Relation, RowId};

use crate::experiments::common::pick_query_rows;
use crate::{Scale, TextTable};

/// Executor meters and identity verdict for one relation size.
#[derive(Debug, Clone)]
pub struct PostingsOutcome {
    /// Relation size in tuples.
    pub rows: usize,
    /// Number of relaxation plans executed.
    pub n_plans: usize,
    /// Total queries across all plans (plan members, duplicates kept).
    pub plan_queries: u64,
    /// Posting terms the shared executors actually evaluated.
    pub terms_evaluated: u64,
    /// Term evaluations answered from the per-plan memo.
    pub term_memo_hits: u64,
    /// Pairwise intersections the shared executors actually computed.
    pub intersections_computed: u64,
    /// Conjunction prefixes answered from the per-plan memo.
    pub prefix_memo_hits: u64,
    /// Terms a memo-less one-shot executor evaluates for the same plans.
    pub one_shot_terms: u64,
    /// Intersections a memo-less one-shot executor computes.
    pub one_shot_intersections: u64,
    /// `1 − shared/one-shot` over terms + intersections: the fraction
    /// of posting work the plan memo eliminated.
    pub work_shared: f64,
    /// Whether shared and one-shot execution returned the naive scan's
    /// row set for every plan member.
    pub identical: bool,
}

/// Result of the posting-list executor run.
#[derive(Debug, Clone)]
pub struct PostingsResult {
    /// One outcome per relation size, ascending; the last entry is the
    /// full relation.
    pub outcomes: Vec<PostingsOutcome>,
}

impl PostingsResult {
    /// Render one row per relation size.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Posting-list executor: shared-plan work vs one-shot execution (CarDB relaxation plans)",
            &[
                "rows",
                "plans",
                "queries",
                "terms",
                "term hits",
                "intersections",
                "prefix hits",
                "one-shot work",
                "work shared",
                "identical",
            ],
        );
        for o in &self.outcomes {
            t.row(vec![
                o.rows.to_string(),
                o.n_plans.to_string(),
                o.plan_queries.to_string(),
                o.terms_evaluated.to_string(),
                o.term_memo_hits.to_string(),
                o.intersections_computed.to_string(),
                o.prefix_memo_hits.to_string(),
                (o.one_shot_terms + o.one_shot_intersections).to_string(),
                format!("{:.1}%", o.work_shared * 100.0),
                o.identical.to_string(),
            ]);
        }
        t
    }
}

/// The relaxation plan for one base tuple: the fully bound tuple query,
/// every single-attribute relaxation, then the base query again (the
/// duplicate that overlapping per-tuple plans produce).
pub fn relaxation_plan(relation: &Relation, row: RowId) -> Vec<SelectionQuery> {
    let tuple = relation.tuple(row);
    let full: Vec<Predicate> = tuple
        .values()
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_null())
        .map(|(i, v)| Predicate::eq(AttrId(i), v.clone()))
        .collect();
    let base = SelectionQuery::new(full.clone()).canonicalize();
    let mut plan = vec![base.clone()];
    for drop in 0..full.len() {
        let kept: Vec<Predicate> = full
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, p)| p.clone())
            .collect();
        plan.push(SelectionQuery::new(kept).canonicalize());
    }
    plan.push(base);
    plan
}

fn scan(relation: &Relation, query: &SelectionQuery) -> Vec<RowId> {
    relation
        .rows()
        .filter(|&row| query.matches(&relation.tuple(row)))
        .collect()
}

fn outcome_for(relation: &Relation, n_plans: usize, seed: u64) -> PostingsOutcome {
    let plans: Vec<Vec<SelectionQuery>> = pick_query_rows(relation, n_plans, seed)
        .into_iter()
        .map(|row| relaxation_plan(relation, row))
        .collect();

    let mut plan_queries = 0u64;
    let mut shared = aimq_storage::ExecStats::default();
    let mut one_shot = aimq_storage::ExecStats::default();
    let mut identical = true;

    for plan in &plans {
        // One shared executor per plan — exactly what a source's
        // `try_query_plan` builds.
        let mut exec = PlanExecutor::new(relation);
        for query in plan {
            plan_queries += 1;
            let via_plan = exec.execute(query);
            let via_one_shot = execute_rows(relation, query);
            if via_plan != via_one_shot || via_plan != scan(relation, query) {
                identical = false;
            }
            // What the same query costs with no memo to hit.
            let mut fresh = PlanExecutor::new(relation);
            fresh.execute(query);
            let f = fresh.stats();
            one_shot.terms_evaluated += f.terms_evaluated;
            one_shot.intersections_computed += f.intersections_computed;
        }
        let s = exec.stats();
        shared.terms_evaluated += s.terms_evaluated;
        shared.term_memo_hits += s.term_memo_hits;
        shared.intersections_computed += s.intersections_computed;
        shared.prefix_memo_hits += s.prefix_memo_hits;
    }

    let one_shot_work = one_shot.terms_evaluated + one_shot.intersections_computed;
    let shared_work = shared.terms_evaluated + shared.intersections_computed;
    PostingsOutcome {
        rows: relation.len(),
        n_plans: plans.len(),
        plan_queries,
        terms_evaluated: shared.terms_evaluated,
        term_memo_hits: shared.term_memo_hits,
        intersections_computed: shared.intersections_computed,
        prefix_memo_hits: shared.prefix_memo_hits,
        one_shot_terms: one_shot.terms_evaluated,
        one_shot_intersections: one_shot.intersections_computed,
        work_shared: if one_shot_work == 0 {
            0.0
        } else {
            1.0 - shared_work as f64 / one_shot_work as f64
        },
        identical,
    }
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> PostingsResult {
    let full = CarDb::generate(scale.cardb(), seed);
    let mut sizes = scale.cardb_samples();
    sizes.push(full.len());

    let n_plans = scale.count(10);
    let outcomes = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let relation = if size >= full.len() {
                full.clone()
            } else {
                full.random_sample(size, seed.wrapping_add(i as u64 + 1))
            };
            outcome_for(&relation, n_plans, seed.wrapping_add(2))
        })
        .collect();

    PostingsResult { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> PostingsResult {
        run(Scale::with_divisor(100), 23)
    }

    #[test]
    fn every_size_is_byte_identical_across_executors() {
        for o in &result().outcomes {
            assert!(o.identical, "{o:?}");
        }
    }

    #[test]
    fn the_plan_memo_shares_real_work() {
        // Every plan repeats its base query and every relaxation shares
        // term prefixes with it, so the memo must hit at every size.
        for o in &result().outcomes {
            assert!(o.term_memo_hits > 0, "{o:?}");
            assert!(o.prefix_memo_hits > 0, "{o:?}");
            assert!(
                o.work_shared > 0.0,
                "shared executor did no better than one-shot: {o:?}"
            );
            assert!(o.terms_evaluated <= o.one_shot_terms, "{o:?}");
            assert!(
                o.intersections_computed <= o.one_shot_intersections,
                "{o:?}"
            );
        }
    }

    #[test]
    fn covers_the_robustness_sample_ladder() {
        let r = result();
        assert_eq!(r.outcomes.len(), 4);
        let rows: Vec<usize> = r.outcomes.iter().map(|o| o.rows).collect();
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(rows, sorted, "sizes must ascend");
    }

    #[test]
    fn same_seed_reruns_are_identical() {
        let a = result();
        let b = result();
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn render_has_a_row_per_size() {
        assert_eq!(result().render().len(), 4);
    }
}
