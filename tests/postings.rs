//! End-to-end guarantees of the posting-list executor and shared-plan
//! evaluation (ISSUE 8):
//!
//! 1. **executor identity** — over generated relations (categorical +
//!    numeric columns, nulls and NaN rows) and generated selection
//!    queries (duplicate predicates on one attribute included), the
//!    posting-list executor and a naive full scan return byte-identical
//!    row sets, and a shared
//!    [`PlanExecutor`] answers every plan member exactly like the
//!    one-shot path;
//! 2. **decorator transparency** — `try_query_plan` through the
//!    `Cached(Resilient(FaultInjecting(InMemory)))` stack returns
//!    exactly what the sequential `try_query` loop returns (pages,
//!    errors, early termination *and* meter state), for every fault
//!    profile and seed;
//! 3. **federation transparency** — a replicated federation answers
//!    plans exactly like its per-query loop, and (benign members) like
//!    the single-source union relation, for every replication factor;
//! 4. **engine identity** — the engine's probe-window size is invisible
//!    end to end: ranked answers and `DegradationReport` are
//!    byte-identical whether each tuple's whole plan or one probe at a
//!    time goes to the source, through the full decorator stack under
//!    every fault profile.

use std::sync::OnceLock;

use aimq_suite::catalog::{
    AttrId, ImpreciseQuery, Predicate, PredicateOp, Schema, SelectionQuery, Tuple, Value,
};
use aimq_suite::data::CarDb;
use aimq_suite::engine::{AimqSystem, AnswerSet, EngineConfig, TrainConfig};
use aimq_suite::storage::{
    execute_rows, CachedWebDb, FaultInjectingWebDb, FaultProfile, FederatedWebDb, FederationPolicy,
    InMemoryWebDb, PlanExecutor, QueryError, QueryPage, Relation, ResilientWebDb, RetryPolicy,
    RowId, SourceSpec, WebDatabase,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Guarantee 1: executor identity on generated relations and queries.
// ---------------------------------------------------------------------

fn gen_schema() -> &'static Schema {
    static S: OnceLock<Schema> = OnceLock::new();
    S.get_or_init(|| {
        Schema::builder("postings-prop")
            .categorical("make")
            .categorical("color")
            .numeric("price")
            .numeric("miles")
            .build()
            .expect("static schema is well formed")
    })
}

/// Categorical pool: a few clashing values, plus `Null`.
fn cat_value(code: u8) -> Value {
    match code % 5 {
        0 => Value::cat("a"),
        1 => Value::cat("b"),
        2 => Value::cat("c"),
        3 => Value::cat("d"),
        _ => Value::Null,
    }
}

/// Numeric *data* pool: infinities, signed zeros, repeats and
/// `Null`/NaN rows — NaN rows are excluded from the sorted index at
/// build time and decode to `Null`, so the executor must agree they
/// match nothing.
fn num_data_value(code: u8) -> Value {
    match code % 11 {
        0 => Value::num(-1e9),
        1 => Value::num(-3.0),
        2 => Value::num(-0.0),
        3 => Value::num(0.0),
        4 => Value::num(1.5),
        5 => Value::num(1.5),
        6 => Value::num(42.0),
        7 => Value::Null,
        8 => Value::num(f64::INFINITY),
        9 => Value::num(f64::NEG_INFINITY),
        _ => Value::num(f64::NAN),
    }
}

/// Numeric *predicate* pool: includes non-finite constants and values
/// off the data grid.
fn num_query_value(code: u8) -> Value {
    match code % 9 {
        0 => Value::num(-1e9),
        1 => Value::num(-0.0),
        2 => Value::num(0.0),
        3 => Value::num(1.5),
        4 => Value::num(2.0),
        5 => Value::num(f64::NEG_INFINITY),
        6 => Value::num(f64::INFINITY),
        7 => Value::num(f64::NAN),
        _ => Value::num(42.0),
    }
}

fn op_of(code: u8) -> PredicateOp {
    match code % 5 {
        0 => PredicateOp::Eq,
        1 => PredicateOp::Lt,
        2 => PredicateOp::Le,
        3 => PredicateOp::Gt,
        _ => PredicateOp::Ge,
    }
}

/// A predicate from three bytes: attribute, operator, value code. The
/// value pool deliberately ignores the attribute's domain sometimes
/// (categorical constant on a numeric column and vice versa), which
/// every executor must resolve to the empty set identically.
fn gen_predicate(attr: u8, op: u8, value: u8) -> Predicate {
    let attr = AttrId(attr as usize % 4);
    let value = if value % 11 == 10 {
        // occasional cross-domain constant
        if attr.index() < 2 {
            num_query_value(value)
        } else {
            cat_value(value)
        }
    } else if attr.index() < 2 {
        match value % 6 {
            5 => Value::cat("unseen"),
            v => cat_value(v),
        }
    } else {
        num_query_value(value)
    };
    Predicate {
        attr,
        op: op_of(op),
        value,
    }
}

fn gen_relation(row_codes: &[(u8, u8, u8, u8)]) -> Relation {
    let schema = gen_schema();
    let tuples: Vec<Tuple> = row_codes
        .iter()
        .map(|&(a, b, c, d)| {
            Tuple::new(
                schema,
                vec![
                    cat_value(a),
                    cat_value(b),
                    num_data_value(c),
                    num_data_value(d),
                ],
            )
            .expect("arity matches the static schema")
        })
        .collect();
    Relation::from_tuples(schema.clone(), &tuples).expect("generated tuples fit the schema")
}

/// The naive reference: decode every row and apply the query AST.
fn scan(relation: &Relation, query: &SelectionQuery) -> Vec<RowId> {
    relation
        .rows()
        .filter(|&row| query.matches(&relation.tuple(row)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Posting-list executor == naive scan, and the answer is invariant
    /// under predicate duplication and permutation.
    #[test]
    fn executor_matches_naive_scan(
        rows in proptest::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 0..40),
        preds in proptest::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255), 0..6),
    ) {
        let relation = gen_relation(&rows);
        let predicates: Vec<Predicate> = preds
            .iter()
            .map(|&(a, o, v)| gen_predicate(a, o, v))
            .collect();
        let query = SelectionQuery::new(predicates.clone());

        let expected = scan(&relation, &query);
        prop_assert_eq!(&execute_rows(&relation, &query), &expected);

        // Duplicating the whole predicate list (duplicate predicates on
        // one attribute, by construction) must change nothing.
        let doubled = SelectionQuery::new(
            predicates.iter().chain(predicates.iter()).cloned().collect(),
        );
        prop_assert_eq!(&execute_rows(&relation, &doubled), &expected);

        // Reversing predicate order must change nothing either.
        let reversed =
            SelectionQuery::new(predicates.iter().rev().cloned().collect());
        prop_assert_eq!(&execute_rows(&relation, &reversed), &expected);
    }

    /// A shared `PlanExecutor` answers every member of a plan exactly
    /// like the one-shot executor, while sharing work: terms are never
    /// evaluated more often than there are distinct (attr-group, plan)
    /// pairs.
    #[test]
    fn shared_plan_matches_one_shot_execution(
        rows in proptest::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 0..30),
        plan in proptest::collection::vec(
            proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..4),
            1..6),
    ) {
        let relation = gen_relation(&rows);
        let queries: Vec<SelectionQuery> = plan
            .iter()
            .map(|preds| {
                SelectionQuery::new(
                    preds.iter().map(|&(a, o, v)| gen_predicate(a, o, v)).collect(),
                )
            })
            .collect();

        let mut exec = PlanExecutor::new(&relation);
        for query in &queries {
            prop_assert_eq!(&exec.execute(query), &execute_rows(&relation, query));
        }
        let stats = exec.stats();
        prop_assert_eq!(stats.queries_executed, queries.len() as u64);
        // Memoization can only save work, never add it.
        prop_assert!(stats.intersections_computed <= stats.terms_evaluated);
    }
}

// ---------------------------------------------------------------------
// Guarantees 2-4 run over a shared CarDB harness.
// ---------------------------------------------------------------------

struct Harness {
    relation: Relation,
    system: AimqSystem,
    queries: Vec<ImpreciseQuery>,
    /// Selection-query plans with deliberate duplicates, derived from
    /// relation tuples (so they are non-trivially satisfiable).
    plans: Vec<Vec<SelectionQuery>>,
}

fn harness() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        let relation = CarDb::generate(900, 23);
        let sample = relation.random_sample(400, 5);
        let system = AimqSystem::train(&sample, &TrainConfig::default())
            .expect("training on a CarDB sample succeeds");
        let step = (relation.len() / 4).max(1) as u32;
        let queries: Vec<ImpreciseQuery> = (0..4u32)
            .map(|i| {
                ImpreciseQuery::from_tuple(&relation.tuple(i * step))
                    .expect("CarDB tuples bind every attribute")
            })
            .collect();
        let plans = (0..4u32)
            .map(|i| plan_for_tuple(&relation, i * step))
            .collect();
        Harness {
            relation,
            system,
            queries,
            plans,
        }
    })
}

/// A relaxation-shaped plan for one base tuple: the fully bound query,
/// each single-attribute relaxation, then the fully bound query again
/// (a deliberate duplicate, as produced by overlapping per-tuple plans).
fn plan_for_tuple(relation: &Relation, row: RowId) -> Vec<SelectionQuery> {
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

fn config() -> EngineConfig {
    EngineConfig {
        t_sim: 0.5,
        top_k: 10,
        ..EngineConfig::default()
    }
}

fn profile_at(idx: usize) -> FaultProfile {
    [
        FaultProfile::none(),
        FaultProfile::flaky(),
        FaultProfile::hostile(),
    ][idx % 3]
}

type FullStack = CachedWebDb<ResilientWebDb<FaultInjectingWebDb<InMemoryWebDb>>>;

/// A fresh `Cached(Resilient(FaultInjecting(InMemory)))` stack; the
/// fault schedule restarts at ordinal zero, so two stacks built with the
/// same profile and seed see identical fates for identical query
/// sequences.
fn full_stack(profile: FaultProfile, fault_seed: u64) -> FullStack {
    CachedWebDb::with_default_capacity(ResilientWebDb::new(
        FaultInjectingWebDb::new(
            InMemoryWebDb::new(harness().relation.clone()),
            profile,
            fault_seed,
        ),
        RetryPolicy::default(),
    ))
}

/// The sequential reference for `try_query_plan`: query at a time,
/// stopping after the first terminal (non-retryable) error.
fn sequential_plan(
    db: &dyn WebDatabase,
    plan: &[SelectionQuery],
) -> Vec<Result<QueryPage, QueryError>> {
    let mut out = Vec::with_capacity(plan.len());
    for query in plan {
        let result = db.try_query(query);
        let terminal = matches!(&result, Err(e) if !e.is_retryable());
        out.push(result);
        if terminal {
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Guarantee 2: through the full decorator stack, `try_query_plan`
    /// is byte-identical to the sequential loop — same pages, same
    /// errors, same early termination, and the same cache/probe meters
    /// afterwards — for every fault profile and seed.
    #[test]
    fn plan_is_transparent_through_the_decorator_stack(
        fault_seed in 0u64..=u64::MAX,
        profile_idx in 0usize..3,
        plan_idx in 0usize..4,
    ) {
        let h = harness();
        let plan = &h.plans[plan_idx];

        let plan_db = full_stack(profile_at(profile_idx), fault_seed);
        let batched = plan_db.try_query_plan(plan);

        let loop_db = full_stack(profile_at(profile_idx), fault_seed);
        let sequential = sequential_plan(&loop_db, plan);

        prop_assert_eq!(&batched, &sequential);
        prop_assert_eq!(
            format!("{:?}", plan_db.stats()),
            format!("{:?}", loop_db.stats()),
            "plan path left different meter state"
        );
    }

    /// Guarantee 4: the probe-window size is invisible end to end —
    /// ranked answers and degradation reports are byte-identical with
    /// whole-plan windows and with one-probe windows (an early-stop
    /// target that is never reached), and so is the source meter,
    /// through the full stack, under every fault profile.
    #[test]
    fn batched_engine_is_byte_identical_through_the_stack(
        fault_seed in 0u64..=u64::MAX,
        profile_idx in 0usize..3,
        query_idx in 0usize..4,
    ) {
        let h = harness();
        let q = &h.queries[query_idx];
        let run = |one_probe_windows: bool| -> (AnswerSet, String) {
            let db = full_stack(profile_at(profile_idx), fault_seed);
            let cfg = EngineConfig {
                target_relevant: one_probe_windows.then_some(usize::MAX),
                ..config()
            };
            let result = h.system.answer(&db, q, &cfg);
            (result, format!("{:?}", db.stats()))
        };
        let (batched, batched_meter) = run(false);
        let (sequential, sequential_meter) = run(true);
        prop_assert_eq!(fingerprint(&batched), fingerprint(&sequential));
        prop_assert_eq!(batched_meter, sequential_meter, "source meter diverged");
    }
}

/// Everything observable about a run, byte-exact (`f64` via `to_bits`).
fn fingerprint(result: &AnswerSet) -> String {
    let answers: Vec<String> = result
        .answers
        .iter()
        .map(|a| format!("{:?}@{:016x}", a.tuple, a.similarity.to_bits()))
        .collect();
    format!("{:?} | {}", result.degradation, answers.join(";"))
}

/// Guarantee 3: a replicated federation answers plans exactly like its
/// own per-query loop, and — with benign members — exactly like the
/// single-source union relation, for every replication factor.
#[test]
fn replicated_federation_answers_plans_like_its_query_loop() {
    let h = harness();
    // The federator merges pages in canonical value order after dedup,
    // so the single-source baseline must present the same order and
    // multiplicity: a value-sorted, deduplicated union relation.
    let mut by_values: std::collections::BTreeMap<Vec<Value>, Tuple> =
        std::collections::BTreeMap::new();
    for row in h.relation.rows() {
        let tuple = h.relation.tuple(row);
        by_values.entry(tuple.values().to_vec()).or_insert(tuple);
    }
    let tuples: Vec<Tuple> = by_values.into_values().collect();
    let union = Relation::from_tuples(h.relation.schema().clone(), &tuples)
        .expect("deduplicated CarDB rows still fit the schema");
    let single = InMemoryWebDb::new(union.clone());
    let plans: Vec<Vec<SelectionQuery>> = (0..3u32)
        .map(|i| plan_for_tuple(&union, i * (union.len() as u32 / 3).max(1)))
        .collect();

    for replication in 1usize..=3 {
        let specs: Vec<SourceSpec> = (0..4)
            .map(|i| SourceSpec::benign(format!("s{i}")))
            .collect();
        let fed = FederatedWebDb::shard(&union, &specs, replication, FederationPolicy::default())
            .expect("4 benign members shard cleanly");
        for plan in &plans {
            let batched = fed.try_query_plan(plan);
            assert_eq!(
                batched,
                sequential_plan(&fed, plan),
                "replication={replication}: plan diverged from the query loop"
            );
            // Benign federation == single source, member count and
            // replication notwithstanding.
            assert_eq!(
                batched,
                sequential_plan(&single, plan),
                "replication={replication}: federation diverged from the union relation"
            );
        }
    }
}

/// Faulty replicated federations stay plan-transparent too: whatever a
/// hostile member does to individual probes, handing the whole plan over
/// changes nothing (same pages, same errors, same truncation).
#[test]
fn faulty_federation_is_plan_transparent() {
    let h = harness();
    for (hostile, fault_seed) in [(0usize, 3u64), (1, 7), (2, 19)] {
        let specs: Vec<SourceSpec> = (0..4)
            .map(|i| SourceSpec {
                profile: if i == hostile {
                    FaultProfile::hostile()
                } else {
                    FaultProfile::none()
                },
                fault_seed: fault_seed.wrapping_add(i as u64),
                ..SourceSpec::benign(format!("s{i}"))
            })
            .collect();
        for plan in &h.plans {
            let plan_fed =
                FederatedWebDb::shard(&h.relation, &specs, 2, FederationPolicy::default())
                    .expect("4 members shard cleanly");
            let batched = plan_fed.try_query_plan(plan);
            let loop_fed =
                FederatedWebDb::shard(&h.relation, &specs, 2, FederationPolicy::default())
                    .expect("4 members shard cleanly");
            assert_eq!(
                batched,
                sequential_plan(&loop_fed, plan),
                "hostile member {hostile}: plan diverged from the query loop"
            );
        }
    }
}
