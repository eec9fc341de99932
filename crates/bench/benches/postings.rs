//! Criterion benchmarks for the posting-list executor: the wall-clock
//! side of the shared-plan story. The eval runner
//! (`cargo run -p aimq-bench --release --bin postings`) counts the
//! posting terms and intersections the plan memo eliminates; this bench
//! measures what selection and plan execution cost end to end on CarDB
//! at the Figure 3/4 sample sizes — (a) one-shot selection through the
//! posting path, and (b) a whole relaxation plan executed
//! query-at-a-time vs through one shared [`PlanExecutor`]. Measured
//! numbers are recorded in `results/BENCH_postings.json`.

use aimq_catalog::SelectionQuery;
use aimq_data::CarDb;
use aimq_eval::experiments::postings::relaxation_plan;
use aimq_storage::{execute_rows, PlanExecutor, Relation, RowId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The Figure 3/4 sample ladder, trimmed to keep the bench short.
const SIZES: [usize; 2] = [15_000, 50_000];

fn workload(n: usize) -> (Relation, Vec<SelectionQuery>) {
    let relation = CarDb::generate(n, 7);
    let step = (relation.len() / 8).max(1) as RowId;
    let queries: Vec<SelectionQuery> = (0..8)
        .flat_map(|i| relaxation_plan(&relation, i * step))
        .collect();
    (relation, queries)
}

/// One-shot selection through the posting path over a mixed query set
/// (fully bound conjunctions and their single-attribute relaxations).
fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection_executor");
    group.sample_size(10);
    for n in SIZES {
        let (relation, queries) = workload(n);
        group.bench_with_input(BenchmarkId::new("postings", n), &n, |b, _| {
            b.iter(|| {
                for q in &queries {
                    black_box(execute_rows(&relation, black_box(q)));
                }
            });
        });
    }
    group.finish();
}

/// Whole relaxation plans: query-at-a-time one-shot execution vs one
/// shared `PlanExecutor` per plan (what a source's `try_query_plan`
/// builds) — the memo turns repeated terms and shared conjunction
/// prefixes into lookups.
fn bench_shared_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_plan");
    group.sample_size(10);
    for n in SIZES {
        let relation = CarDb::generate(n, 7);
        let step = (relation.len() / 8).max(1) as RowId;
        let plans: Vec<Vec<SelectionQuery>> = (0..8)
            .map(|i| relaxation_plan(&relation, i * step))
            .collect();
        group.bench_with_input(BenchmarkId::new("one_shot", n), &n, |b, _| {
            b.iter(|| {
                for plan in &plans {
                    for q in plan {
                        black_box(execute_rows(&relation, black_box(q)));
                    }
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("plan_executor", n), &n, |b, _| {
            b.iter(|| {
                for plan in &plans {
                    let mut exec = PlanExecutor::new(&relation);
                    for q in plan {
                        black_box(exec.execute(black_box(q)));
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection, bench_shared_plan);
criterion_main!(benches);
