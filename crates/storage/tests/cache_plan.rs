//! `CachedWebDb::try_query_plan` is the sequential loop, observably.
//!
//! The plan path answers hits in place and forwards misses inward as one
//! sub-plan. Whatever a caller or the source can observe must equal the
//! plain `try_query` loop on an identical stack: the results, the exact
//! query sequence the inner source receives, the meters and the memo
//! size. The inputs stress what makes that hard: keys repeated within a
//! plan (a repeat may hit only after its first miss is admitted), tiny
//! capacities (an admission may evict a key the plan reaches later),
//! truncated pages, and inner sources that fail mid-plan.

use std::sync::Mutex;

use aimq_catalog::{AttrId, Predicate, PredicateOp, Schema, SelectionQuery, Tuple, Value};
use aimq_storage::{
    AccessStats, CachedWebDb, InMemoryWebDb, QueryError, QueryPage, Relation, WebDatabase,
};
use proptest::prelude::*;

/// Inner source that logs every query it receives and answers from a
/// tiny relation, except that query ordinal `fail_at` fails with `fault`.
struct RecordingDb {
    inner: InMemoryWebDb,
    log: Mutex<Vec<SelectionQuery>>,
    fail_at: Option<(usize, QueryError)>,
}

impl RecordingDb {
    fn new(result_limit: Option<usize>, fail_at: Option<(usize, QueryError)>) -> Self {
        let inner = InMemoryWebDb::new(relation());
        RecordingDb {
            inner: match result_limit {
                Some(limit) => inner.with_result_limit(limit),
                None => inner,
            },
            log: Mutex::new(Vec::new()),
            fail_at,
        }
    }

    fn log(&self) -> Vec<SelectionQuery> {
        self.log.lock().unwrap().clone()
    }
}

impl WebDatabase for RecordingDb {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let ordinal = {
            let mut log = self.log.lock().unwrap();
            log.push(query.clone());
            log.len() - 1
        };
        match self.fail_at {
            Some((at, fault)) if at == ordinal => Err(fault),
            _ => self.inner.try_query(query),
        }
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

fn relation() -> Relation {
    let schema = Schema::builder("R")
        .categorical("Make")
        .numeric("Price")
        .build()
        .unwrap();
    let tuples: Vec<Tuple> = [("Toyota", 10000.0), ("Honda", 9000.0), ("Toyota", 7000.0)]
        .iter()
        .map(|&(m, p)| Tuple::new(&schema, vec![Value::cat(m), Value::num(p)]).unwrap())
        .collect();
    Relation::from_tuples(schema, &tuples).unwrap()
}

fn make_eq(make: &str) -> Predicate {
    Predicate::eq(AttrId(0), Value::cat(make))
}

fn price_ge(p: f64) -> Predicate {
    Predicate {
        attr: AttrId(1),
        op: PredicateOp::Ge,
        value: Value::num(p),
    }
}

/// Plan vocabulary: five distinct keys, one of them also spelled in a
/// non-canonical order (entries 4 and 5 share a key), and the match-all
/// query, whose page a result limit of one truncates.
fn pool() -> Vec<SelectionQuery> {
    vec![
        SelectionQuery::new(vec![make_eq("Toyota")]),
        SelectionQuery::new(vec![make_eq("Honda")]),
        SelectionQuery::new(vec![price_ge(8000.0)]),
        SelectionQuery::new(vec![price_ge(9500.0)]),
        SelectionQuery::new(vec![make_eq("Toyota"), price_ge(8000.0)]),
        SelectionQuery::new(vec![price_ge(8000.0), make_eq("Toyota")]),
        SelectionQuery::all(),
    ]
}

/// The trait's default plan loop, spelled out as the reference.
fn sequential(db: &dyn WebDatabase, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
    let mut out = Vec::new();
    for q in plan {
        let result = db.try_query(q);
        let terminal = matches!(&result, Err(e) if !e.is_retryable());
        out.push(result);
        if terminal {
            break;
        }
    }
    out
}

/// Everything observable about one stack after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Vec<Result<QueryPage, QueryError>>>,
    inner_log: Vec<SelectionQuery>,
    stats: AccessStats,
    len: usize,
}

/// Run `plans` in order through a fresh `Cached(Recording)` stack, each
/// plan through the plan path or through the sequential loop.
fn run(
    plans: &[Vec<SelectionQuery>],
    capacity: usize,
    stripes: usize,
    result_limit: Option<usize>,
    fail_at: Option<(usize, QueryError)>,
    plan_path: bool,
) -> Observed {
    let db = CachedWebDb::with_stripes(RecordingDb::new(result_limit, fail_at), capacity, stripes);
    let results = plans
        .iter()
        .map(|plan| {
            if plan_path {
                db.try_query_plan(plan)
            } else {
                sequential(&db, plan)
            }
        })
        .collect();
    Observed {
        results,
        inner_log: db.inner().log(),
        stats: db.stats(),
        len: db.len(),
    }
}

const CAPACITIES: [usize; 5] = [0, 1, 2, 3, 4096];
const STRIPES: [usize; 2] = [1, 4];
const FAULTS: [QueryError; 2] = [QueryError::Unavailable, QueryError::Transient];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Two plans back to back (the first warms the memo the second
    /// sees), every capacity, stripe count and result limit, with an
    /// optional terminal or retryable failure at a scripted ordinal.
    #[test]
    fn cache_plan_path_equals_the_sequential_loop(
        warm in prop::collection::vec(0usize..7, 0..8),
        plan in prop::collection::vec(0usize..7, 0..14),
        capacity_idx in 0usize..5,
        stripes_idx in 0usize..2,
        truncate in 0u8..2,
        fail_ordinal in 0usize..30,
        fault_idx in 0usize..2,
    ) {
        let pool = pool();
        let plans: Vec<Vec<SelectionQuery>> = [warm, plan]
            .iter()
            .map(|idx| idx.iter().map(|&i| pool[i].clone()).collect())
            .collect();
        let (capacity, stripes) = (CAPACITIES[capacity_idx], STRIPES[stripes_idx]);
        let result_limit = (truncate == 1).then_some(1);
        // Two plans issue at most 21 queries; a later ordinal never fails.
        let fail_at = Some((fail_ordinal, FAULTS[fault_idx]));
        let by_plan = run(&plans, capacity, stripes, result_limit, fail_at, true);
        let by_loop = run(&plans, capacity, stripes, result_limit, fail_at, false);
        prop_assert_eq!(by_plan, by_loop);
    }
}

/// Rule (b): a key that is a hit when the plan reaches it may be evicted
/// by the admissions of misses queued before it. Capacity 2, one stripe,
/// memo `{a}`, plan `[b, c, a]`: the loop admits `b`, then `c` evicts
/// `a`, so `a` misses and is re-issued — and so must the plan path.
#[test]
fn plan_path_re_issues_a_key_its_own_misses_evict() {
    let pool = pool();
    let (a, b, c) = (&pool[0], &pool[1], &pool[2]);
    let plans = vec![vec![a.clone()], vec![b.clone(), c.clone(), a.clone()]];
    let by_plan = run(&plans, 2, 1, None, None, true);
    assert_eq!(by_plan, run(&plans, 2, 1, None, None, false));
    assert_eq!(
        by_plan.inner_log,
        vec![a.clone(), b.clone(), c.clone(), a.clone()]
    );
    assert_eq!(
        (by_plan.stats.cache_hits, by_plan.stats.cache_misses),
        (0, 4)
    );
}

/// Rule (a): a key repeated within one plan misses once; the repeat is
/// answered from the page its first occurrence admitted.
#[test]
fn plan_path_answers_a_repeated_key_from_its_first_miss() {
    let pool = pool();
    let plans = vec![vec![pool[4].clone(), pool[1].clone(), pool[5].clone()]];
    let by_plan = run(&plans, 16, 1, None, None, true);
    assert_eq!(by_plan, run(&plans, 16, 1, None, None, false));
    assert_eq!(by_plan.inner_log, vec![pool[4].clone(), pool[1].clone()]);
    assert_eq!(
        (by_plan.stats.cache_hits, by_plan.stats.cache_misses),
        (1, 2)
    );
}
