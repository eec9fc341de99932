use aimq_catalog::{ImpreciseQuery, SelectionQuery, Tuple};
use aimq_sim::SimilarityModel;
use aimq_storage::WebDatabase;

use crate::bind::precise_query_for;
use crate::engine::{DegradationReport, ProbeMemo};
use crate::RelaxationStrategy;

/// Map an imprecise query to its base query `Qpr` and fetch the base set
/// `Abs` (Algorithm 1, step 1).
///
/// `Qpr` tightens every `like` into `=` (categorical) or the containing
/// bucket band (numeric; see `precise_query_for`). If its answer set is empty,
/// the paper's footnote 2 applies: "We assume a non-null resultset for Qpr
/// or one of its *generalizations*. The attribute ordering heuristic … is
/// useful in relaxing Qpr also." — so we relax `Qpr` step by step using
/// the same strategy that will drive tuple relaxation, returning the first
/// generalization with answers.
///
/// Probes go through the fallible [`WebDatabase::try_query`] interface. A
/// failed probe is recorded in `report` and skipped — the next
/// generalization is tried instead — except a terminal
/// [`aimq_storage::QueryError::Unavailable`], which flags
/// `report.source_lost` and abandons the derivation (counting the
/// generalizations never tried as skipped probes).
///
/// Returns `(query_used, base_set)`; the base set is empty only when even
/// the loosest permitted generalization matches nothing — or when the
/// source was lost, which `report` distinguishes.
pub fn derive_base_set(
    db: &dyn WebDatabase,
    query: &ImpreciseQuery,
    model: &SimilarityModel,
    strategy: &mut dyn RelaxationStrategy,
    max_level: usize,
    report: &mut DegradationReport,
) -> (SelectionQuery, Vec<Tuple>) {
    derive_base_set_memoized(
        db,
        query,
        model,
        strategy,
        max_level,
        report,
        &mut ProbeMemo::disabled(),
    )
}

/// [`derive_base_set`] with the engine's per-call probe memo threaded
/// through: every successful page (the base query's and each
/// generalization's) is recorded under its canonical query form, so the
/// relaxation loop replays instead of re-issuing any probe that
/// reproduces a derivation query. Derivation itself never repeats a
/// query (the generalization steps are distinct subsets), so it only
/// records.
pub(crate) fn derive_base_set_memoized(
    db: &dyn WebDatabase,
    query: &ImpreciseQuery,
    model: &SimilarityModel,
    strategy: &mut dyn RelaxationStrategy,
    max_level: usize,
    report: &mut DegradationReport,
    memo: &mut ProbeMemo,
) -> (SelectionQuery, Vec<Tuple>) {
    let base = precise_query_for(model, query.bindings());
    // Probe with the canonical form: the memo and any downstream cache
    // key on it, and issuing it directly lets the cache borrow the key
    // instead of re-canonicalizing (the forms select the same tuples).
    let base_key = base.canonicalize();
    report.note_attempt();
    match db.try_query(&base_key) {
        Ok(page) => {
            if page.truncated {
                report.note_truncated();
            }
            memo.record(base_key, &page);
            if !page.tuples.is_empty() {
                return (base, page.tuples);
            }
        }
        Err(error) => {
            report.note_failure(error);
            if report.source_lost {
                return (base, Vec::new());
            }
        }
    }

    let bound = base.bound_attrs();
    let steps = strategy.steps(&bound, max_level);
    for (step_index, step) in steps.iter().enumerate() {
        let relaxed = base.relax(step);
        if relaxed.is_empty() {
            continue;
        }
        let relaxed_key = relaxed.canonicalize();
        report.note_attempt();
        match db.try_query(&relaxed_key) {
            Ok(page) => {
                if page.truncated {
                    report.note_truncated();
                }
                memo.record(relaxed_key, &page);
                if !page.tuples.is_empty() {
                    return (relaxed, page.tuples);
                }
            }
            Err(error) => {
                report.note_failure(error);
                if report.source_lost {
                    let unprobed = steps.len().saturating_sub(step_index).saturating_sub(1);
                    report.probes_skipped = report.probes_skipped.saturating_add(unprobed as u64);
                    return (base, Vec::new());
                }
            }
        }
    }
    (base, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomRelax;
    use aimq_afd::{AttributeOrdering, BucketConfig};
    use aimq_catalog::{AttrId, BucketSpec, Schema, Value};
    use aimq_sim::SimConfig;
    use aimq_storage::{InMemoryWebDb, Relation};

    fn model(db: &InMemoryWebDb) -> SimilarityModel {
        let schema = db.relation().schema().clone();
        let ordering = AttributeOrdering::uniform(&schema).unwrap();
        // Narrow price buckets so the banded base query behaves almost
        // like equality in these tests.
        let bucket =
            BucketConfig::for_schema(&schema).with_spec(AttrId(2), BucketSpec::width(100.0));
        SimilarityModel::build(db.relation(), &ordering, &SimConfig { bucket })
    }

    fn db() -> InMemoryWebDb {
        let schema = schema();
        let rows = [
            ("Toyota", "Camry", 10000.0),
            ("Toyota", "Camry", 12000.0),
            ("Honda", "Accord", 9000.0),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(mk, md, p)| {
                Tuple::new(&schema, vec![Value::cat(mk), Value::cat(md), Value::num(p)]).unwrap()
            })
            .collect();
        InMemoryWebDb::new(Relation::from_tuples(schema, &tuples).unwrap())
    }

    fn schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Price")
            .build()
            .unwrap()
    }

    #[test]
    fn exact_base_query_when_nonempty() {
        let db = db();
        let q = ImpreciseQuery::builder(&schema())
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .like("Price", Value::num(10000.0))
            .unwrap()
            .build()
            .unwrap();
        let mut strategy = RandomRelax::new(1);
        let m = model(&db);
        let mut report = DegradationReport::default();
        let (used, base_set) = derive_base_set(&db, &q, &m, &mut strategy, 2, &mut report);
        assert_eq!(base_set.len(), 1);
        assert_eq!(used.bound_attrs().len(), 2); // no generalization needed
        assert_eq!(report.probes_failed, 0);
        assert_eq!(report.probes_attempted, 1);
    }

    #[test]
    fn generalizes_when_base_query_is_empty() {
        let db = db();
        // No Camry near 9500 (width-100 buckets) → must generalize.
        let q = ImpreciseQuery::builder(&schema())
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .like("Price", Value::num(9550.0))
            .unwrap()
            .build()
            .unwrap();
        let mut strategy = RandomRelax::new(1);
        let m = model(&db);
        let mut report = DegradationReport::default();
        let (used, base_set) = derive_base_set(&db, &q, &m, &mut strategy, 2, &mut report);
        assert!(!base_set.is_empty(), "generalization must find answers");
        assert!(used.bound_attrs().len() < 2);
        // Whatever was kept, the answers satisfy it.
        assert!(base_set.iter().all(|t| used.matches(t)));
    }

    #[test]
    fn unsatisfiable_query_returns_empty() {
        let db = db();
        let q = ImpreciseQuery::builder(&schema())
            .like("Model", Value::cat("DeLorean"))
            .unwrap()
            .build()
            .unwrap();
        let mut strategy = RandomRelax::new(1);
        let m = model(&db);
        let mut report = DegradationReport::default();
        let (_, base_set) = derive_base_set(&db, &q, &m, &mut strategy, 2, &mut report);
        // Single binding: relaxing it fully is not permitted, so no
        // generalization exists.
        assert!(base_set.is_empty());
        // No fault was involved: the emptiness is genuine.
        assert_eq!(report.probes_failed, 0);
        assert!(!report.source_lost);
    }
}
