//! Tracing from outside the crates: in-memory spans recorded around calls
//! into public functions, and a forwarding timing decorator placed at two
//! points of the source stack.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aimq_catalog::{Schema, SelectionQuery};
use aimq_storage::{AccessStats, QueryError, QueryPage, SourceHealth, WebDatabase};

/// One recorded interval. Spans of one request share `request`; `parent`
/// is the span that was open on the same thread when this one started
/// (0 for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// Enclosing span on the same thread, or 0.
    pub parent: u64,
    /// Request the span belongs to (0 when the thread has none set).
    pub request: u64,
    /// Layer boundary, e.g. `core.answer` or `storage.source`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// (current request, innermost open span) of this thread.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Span store. Spans stay in memory until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Relaxation plans handed to a capturing decorator, per request.
    plans: Mutex<Vec<(u64, Vec<SelectionQuery>)>>,
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            plans: Mutex::new(Vec::new()),
        })
    }

    /// Tag every span this thread opens from now on with `request`.
    pub fn set_request(request: u64) {
        CONTEXT.with(|c| c.set((request, c.get().1)));
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (request, parent) = CONTEXT.with(|c| c.get());
        CONTEXT.with(|c| c.set((request, id)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CONTEXT.with(|c| c.set((request, parent)));
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a plan seen by a capturing decorator.
    fn capture_plan(&self, plan: &[SelectionQuery]) {
        let request = CONTEXT.with(|c| c.get().0);
        self.plans
            .lock()
            .expect("plan store poisoned")
            .push((request, plan.to_vec()));
    }

    /// Hand over (and forget) the spans and plans recorded so far, so
    /// each pass of a run is measured on its own.
    pub fn take(&self) -> (Vec<Span>, Vec<(u64, Vec<SelectionQuery>)>) {
        (
            std::mem::take(&mut *self.spans.lock().expect("span store poisoned")),
            std::mem::take(&mut *self.plans.lock().expect("plan store poisoned")),
        )
    }
}

/// Total duration of the spans called `name`, in milliseconds.
pub fn busy_ms(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum();
    ns as f64 / 1e6
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Self time of each span called `parent_name`: its duration minus the
/// part of it that its children cover. Fails if a child lies outside its
/// parent or two children overlap, i.e. if the spans do not nest.
pub fn self_times_ns(spans: &[Span], parent_name: &str) -> Result<Vec<(Span, u64)>, String> {
    let mut children: std::collections::BTreeMap<u64, Vec<Span>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(*s);
    }
    let mut out = Vec::new();
    for parent in spans.iter().filter(|s| s.name == parent_name) {
        let mut kids = children.remove(&parent.id).unwrap_or_default();
        kids.sort_by_key(|k| k.start_ns);
        let mut covered = 0u64;
        let mut last_end = parent.start_ns;
        for k in &kids {
            if k.start_ns < last_end || k.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} ({}) does not nest inside span {} ({})",
                    k.id, k.name, parent.id, parent.name
                ));
            }
            covered += k.dur_ns();
            last_end = k.end_ns;
        }
        out.push((*parent, parent.dur_ns() - covered));
    }
    Ok(out)
}

/// Calls and rows that passed one decorator.
#[derive(Debug, Default)]
pub struct LayerCounters {
    /// `try_query` calls.
    pub single_calls: AtomicU64,
    /// `try_query_plan` calls.
    pub plan_calls: AtomicU64,
    /// Tuples returned through either call.
    pub rows_returned: AtomicU64,
}

impl LayerCounters {
    /// `(single_calls, plan_calls, rows_returned)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.single_calls.load(Ordering::Relaxed),
            self.plan_calls.load(Ordering::Relaxed),
            self.rows_returned.load(Ordering::Relaxed),
        )
    }
}

/// A forwarding [`WebDatabase`] decorator that times every call into the
/// database below it. It forwards `try_query_plan` as a plan — without
/// that override the trait default would split plans into one-shot
/// queries and the traced program would differ from the measured one.
pub struct TimingDb {
    inner: Arc<dyn WebDatabase>,
    span_name: &'static str,
    tracer: Arc<Tracer>,
    capture_plans: bool,
    /// Calls and rows seen by this decorator (shared, so they stay
    /// readable after the decorator is moved into a stack).
    pub counters: Arc<LayerCounters>,
}

impl TimingDb {
    /// Time calls into `inner` as spans called `span_name`. With
    /// `capture_plans`, every plan passing through is also recorded.
    pub fn new(
        inner: Arc<dyn WebDatabase>,
        span_name: &'static str,
        tracer: Arc<Tracer>,
        capture_plans: bool,
    ) -> Self {
        TimingDb {
            inner,
            span_name,
            tracer,
            capture_plans,
            counters: Arc::default(),
        }
    }
}

impl WebDatabase for TimingDb {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let result = self
            .tracer
            .span(self.span_name, || self.inner.try_query(query));
        self.counters.single_calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(page) = &result {
            self.counters
                .rows_returned
                .fetch_add(page.tuples.len() as u64, Ordering::Relaxed);
        }
        result
    }

    fn try_query_plan(&self, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
        if self.capture_plans {
            self.tracer.capture_plan(plan);
        }
        let results = self
            .tracer
            .span(self.span_name, || self.inner.try_query_plan(plan));
        self.counters.plan_calls.fetch_add(1, Ordering::Relaxed);
        let rows: usize = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|p| p.tuples.len())
            .sum();
        self.counters
            .rows_returned
            .fetch_add(rows as u64, Ordering::Relaxed);
        results
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn source_health(&self) -> Option<Vec<SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::answer_digest;
    use aimq::EngineConfig;
    use aimq_catalog::ImpreciseQuery;
    use aimq_data::CarDb;
    use aimq_eval::experiments::common::train_cardb;
    use aimq_storage::{CachedWebDb, InMemoryWebDb};

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new();
        Tracer::set_request(7);
        tracer.span("core.answer", || {
            tracer.span("storage.stack", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tracer.span("storage.stack", || ());
        });
        let (spans, _) = tracer.take();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == 7));
        let selfs = self_times_ns(&spans, "core.answer").unwrap();
        assert_eq!(selfs.len(), 1);
        let (answer, self_ns) = selfs[0];
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == answer.id)
            .map(Span::dur_ns)
            .sum();
        assert!(children >= 2_000_000);
        assert_eq!(self_ns + children, answer.dur_ns());
    }

    #[test]
    fn overlapping_children_are_reported() {
        let parent = Span {
            id: 1,
            parent: 0,
            request: 0,
            name: "p",
            start_ns: 0,
            end_ns: 10,
        };
        let a = Span {
            id: 2,
            parent: 1,
            request: 0,
            name: "c",
            start_ns: 1,
            end_ns: 6,
        };
        let b = Span {
            id: 3,
            parent: 1,
            request: 0,
            name: "c",
            start_ns: 5,
            end_ns: 8,
        };
        assert!(self_times_ns(&[parent, a, b], "p").is_err());
        let late = Span {
            id: 4,
            parent: 1,
            request: 0,
            name: "c",
            start_ns: 9,
            end_ns: 11,
        };
        assert!(self_times_ns(&[parent, late], "p").is_err());
    }

    /// The decorators' self-test: a traced pass gives the same answers
    /// and the same source-level meter as an untraced one, and the plan
    /// calls reach the source as plans.
    #[test]
    fn traced_and_untraced_passes_agree() {
        let relation = CarDb::generate(3_000, 11);
        let system = train_cardb(&relation.random_sample(1_000, 12));
        let queries: Vec<ImpreciseQuery> = (0..12)
            .map(|row| ImpreciseQuery::from_tuple(&relation.tuple(row * 97)).unwrap())
            .collect();
        let schema = relation.schema().clone();
        let config = EngineConfig::default();

        for cached in [false, true] {
            let plain = InMemoryWebDb::new(relation.clone());
            let plain_stack: Arc<dyn WebDatabase> = if cached {
                Arc::new(CachedWebDb::with_stripes(plain.clone(), 64, 8))
            } else {
                Arc::new(plain.clone())
            };
            let untraced: Vec<u64> = queries
                .iter()
                .map(|q| answer_digest(&system.answer(&*plain_stack, q, &config), &schema))
                .collect();

            let tracer = Tracer::new();
            let source = InMemoryWebDb::new(relation.clone());
            let inner = TimingDb::new(
                Arc::new(source.clone()),
                "storage.source",
                Arc::clone(&tracer),
                false,
            );
            let inner_counters = Arc::clone(&inner.counters);
            let middle: Arc<dyn WebDatabase> = if cached {
                Arc::new(CachedWebDb::with_stripes(inner, 64, 8))
            } else {
                Arc::new(inner)
            };
            let outer = TimingDb::new(middle, "storage.stack", Arc::clone(&tracer), true);
            let traced: Vec<u64> = queries
                .iter()
                .map(|q| answer_digest(&system.answer(&outer, q, &config), &schema))
                .collect();

            assert_eq!(traced, untraced, "cached={cached}");
            assert_eq!(source.stats(), plain.stats(), "cached={cached}");
            assert_eq!(outer.stats(), plain_stack.stats(), "cached={cached}");
            let (_, outer_plans, _) = outer.counters.snapshot();
            let (_, inner_plans, _) = inner_counters.snapshot();
            assert!(outer_plans > 0);
            // Plans reach the bare source as plans; the cache splits them.
            assert_eq!(inner_plans == outer_plans, !cached, "cached={cached}");
            let (spans, plans) = tracer.take();
            assert_eq!(plans.len() as u64, outer_plans);
            assert!(busy_ms(&spans, "storage.stack") >= busy_ms(&spans, "storage.source"));
        }
    }
}
