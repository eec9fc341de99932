//! The three workloads and the passes that measure them.
//!
//! * `census_plan` — CensusDB (45k rows, 13 attributes), engine in
//!   process over the bare `InMemoryWebDb`, one client, distinct
//!   held-out queries. 91-step relaxation plans reach the shared-plan
//!   `PlanExecutor` whole; there is no cache.
//! * `cardb_cold` — CarDB (100k rows) through the production source stack
//!   (`CachedWebDb`, 4096 entries, 8 stripes), a long log of distinct
//!   queries whose probes far outnumber the cache, so it misses, fills and
//!   evicts. The cache splits every plan into one-shot queries.
//! * `cardb_http` — the same CarDB system behind `AimqHttpServer` with 2
//!   serve workers; 40 distinct queries cycled over at most `nproc`
//!   keep-alive connections, cache warmed first so every probe hits.
//!
//! A measured run (`--trace 0`) times the workload with no tracing. A
//! traced run (`--trace 1`) times it untraced, then again with timing
//! decorators in the stack, then replays the engine's public sub-stage
//! functions on a separate source instance.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aimq::{
    compile_probes, derive_base_set, tuple_query_for, AimqSystem, AnswerSet, DegradationReport,
    EngineConfig, GuidedRelax, RelaxationStrategy,
};
use aimq_catalog::{AttrId, ImpreciseQuery, Json, Schema, SelectionQuery, Tuple};
use aimq_data::{CarDb, CensusDb};
use aimq_eval::experiments::common::{train_cardb, train_census};
use aimq_http::{AimqHttpServer, Decoder, HttpConfig};
use aimq_serve::{QueryServer, ServeConfig, ServeStatsSnapshot};
use aimq_storage::{
    AccessStats, CachedWebDb, ExecStats, InMemoryWebDb, PlanExecutor, Relation, RowId, WebDatabase,
};

use crate::check::{answer_digest, full_digest, reply_matches};
use crate::client::{post_request, Conn};
use crate::stats::{mean, percentile, sorted, tail_percentile, Ratio, Report};
use crate::trace::{busy_ms, self_times_ns, write_jsonl, LayerCounters, Span, TimingDb, Tracer};

/// CensusDB rows (the paper's size).
pub const CENSUS_ROWS: usize = 45_000;
/// CarDB rows (the paper's size).
pub const CARDB_ROWS: usize = 100_000;
/// Rows of the training sample; the rest are held out for queries.
pub const TRAIN_SAMPLE: usize = 15_000;
/// Longest query log drawn for the in-process workloads — far more than
/// one run gets through, so every timed query is distinct.
const LOG_CAP: usize = 20_000;
/// Distinct queries cycled by `cardb_http`.
pub const HTTP_LOG: usize = 40;
/// `CachedWebDb` capacity, in pages (one page per probe key).
pub const CACHE_CAPACITY: usize = 4096;
/// `CachedWebDb` lock stripes.
pub const CACHE_STRIPES: usize = 8;
/// `QueryServer` workers behind the HTTP front door.
pub const SERVE_WORKERS: usize = 2;
/// Client threads (and connections) at most; capped by `nproc` too.
const MAX_CLIENTS: usize = 2;
/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Every measured run times at least this many queries, so the p99 has
/// ten samples beyond it.
const MIN_TIMED: usize = 1_000;
/// The index name the HTTP front door serves.
const INDEX: &str = "cardb";

/// Span names: the engine call, the outer decorator (everything the
/// engine sees) and the inner one (the bare source), and one HTTP
/// exchange as the client sees it.
const ANSWER_SPAN: &str = "core.answer";
const STACK_SPAN: &str = "storage.stack";
const SOURCE_SPAN: &str = "storage.source";
const HTTP_SPAN: &str = "http.request";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Wide-schema plans on the bare source.
    CensusPlan,
    /// Cache misses, fills and evictions.
    CardbCold,
    /// The HTTP front door over a warm cache.
    CardbHttp,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::CensusPlan,
        Workload::CardbCold,
        Workload::CardbHttp,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CensusPlan => "census_plan",
            Workload::CardbCold => "cardb_cold",
            Workload::CardbHttp => "cardb_http",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every input the benchmark generates.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a measured one.
    pub trace: bool,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric measured.
    pub report: Report,
    /// Answers checked.
    pub attempted: u64,
    /// Answers that failed their check (wrong, degraded, refused, lost).
    pub failed: u64,
    /// Failed self-checks of the trace (nesting, replay, traced vs
    /// untraced), with their reasons.
    pub problems: Vec<String>,
}

impl Outcome {
    /// `true` when every answer and every self-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn note(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// SplitMix64: the benchmark's own deterministic draws.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Dataset, trained system and query log of one set-up.
struct World {
    source: InMemoryWebDb,
    system: Arc<AimqSystem>,
    log: Vec<ImpreciseQuery>,
    generate_s: f64,
}

/// Generate the dataset, draw the training sample and train. Returns the
/// world and the seconds spent (query-log drawing excluded).
fn build_world(workload: Workload, seed: u64) -> (World, f64) {
    let started = Instant::now();
    let relation = match workload {
        Workload::CensusPlan => CensusDb::generate(CENSUS_ROWS, seed).0,
        Workload::CardbCold | Workload::CardbHttp => CarDb::generate(CARDB_ROWS, seed),
    };
    let generate_s = started.elapsed().as_secs_f64();
    let mut rows: Vec<RowId> = relation.rows().collect();
    SplitMix(seed ^ 0x5EED_5EED).shuffle(&mut rows);
    let (train, held_out) = rows.split_at(TRAIN_SAMPLE.min(rows.len()));
    let sample = relation.project_rows(train);
    let system = Arc::new(match workload {
        Workload::CensusPlan => train_census(&sample),
        Workload::CardbCold | Workload::CardbHttp => train_cardb(&sample),
    });
    let setup_s = started.elapsed().as_secs_f64();

    let cap = if workload == Workload::CardbHttp {
        HTTP_LOG
    } else {
        LOG_CAP
    };
    let mut seen: HashSet<Tuple> = HashSet::new();
    let log = held_out
        .iter()
        .map(|&row| relation.tuple(row))
        .filter(|t| seen.insert(t.clone()))
        .filter_map(|t| ImpreciseQuery::from_tuple(&t).ok())
        .take(cap)
        .collect();
    let world = World {
        source: InMemoryWebDb::new(relation),
        system,
        log,
        generate_s,
    };
    (world, setup_s)
}

/// The stack the engine probes: the bare source, or the production cache
/// over it.
fn untraced_stack(workload: Workload, source: &InMemoryWebDb) -> Arc<dyn WebDatabase> {
    match workload {
        Workload::CensusPlan => Arc::new(source.clone()),
        Workload::CardbCold | Workload::CardbHttp => Arc::new(CachedWebDb::with_stripes(
            source.clone(),
            CACHE_CAPACITY,
            CACHE_STRIPES,
        )),
    }
}

/// The same stack with a timing decorator on top and one directly above
/// the source.
struct TracedStack {
    stack: Arc<dyn WebDatabase>,
    source_calls: Arc<LayerCounters>,
}

fn traced_stack(workload: Workload, source: &InMemoryWebDb, tracer: &Arc<Tracer>) -> TracedStack {
    let inner = TimingDb::new(
        Arc::new(source.clone()),
        SOURCE_SPAN,
        Arc::clone(tracer),
        false,
    );
    let source_calls = Arc::clone(&inner.counters);
    let middle: Arc<dyn WebDatabase> = match workload {
        Workload::CensusPlan => Arc::new(inner),
        Workload::CardbCold | Workload::CardbHttp => Arc::new(CachedWebDb::with_stripes(
            inner,
            CACHE_CAPACITY,
            CACHE_STRIPES,
        )),
    };
    TracedStack {
        stack: Arc::new(TimingDb::new(middle, STACK_SPAN, Arc::clone(tracer), true)),
        source_calls,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: SERVE_WORKERS,
        queue_capacity: 64,
        deadline_ticks: 0,
        ticks_per_probe: 1,
        engine: EngineConfig::default(),
    }
}

fn start_server(system: &Arc<AimqSystem>, stack: &Arc<dyn WebDatabase>) -> AimqHttpServer {
    AimqHttpServer::start(
        Arc::clone(system),
        Arc::clone(stack),
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            index: INDEX.to_string(),
            serve: serve_config(),
        },
    )
    .expect("bind a loopback port")
}

/// Answer every query of the log once, serially, through `stack`.
fn warm(system: &AimqSystem, stack: &dyn WebDatabase, log: &[ImpreciseQuery]) {
    let config = EngineConfig::default();
    for query in log {
        black_box(system.answer(stack, query, &config));
    }
}

/// Client threads: at most [`MAX_CLIENTS`] and at most `nproc`.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_CLIENTS))
}

/// One set-up, ready to measure.
struct Prepared {
    world: World,
    stack: Arc<dyn WebDatabase>,
    server: Option<AimqHttpServer>,
    setup_s: f64,
}

fn set_up(workload: Workload, seed: u64) -> Prepared {
    let (world, build_s) = build_world(workload, seed);
    let started = Instant::now();
    let stack = untraced_stack(workload, &world.source);
    let server = (workload == Workload::CardbHttp).then(|| {
        let server = start_server(&world.system, &stack);
        warm(&world.system, &*stack, &world.log);
        server
    });
    let setup_s = build_s + started.elapsed().as_secs_f64();
    Prepared {
        world,
        stack,
        server,
        setup_s,
    }
}

/// When a timed pass stops.
#[derive(Debug, Clone, Copy)]
enum Limit {
    /// After this long, and not before this many queries.
    For(Duration, usize),
    /// After exactly this many queries.
    Count(usize),
}

impl Limit {
    fn done(self, started: Instant, issued: usize) -> bool {
        match self {
            Limit::For(d, min) => issued >= min && started.elapsed() >= d,
            Limit::Count(n) => issued >= n,
        }
    }
}

/// One in-process pass: the engine called directly, one client. Only
/// digests are kept in a measured pass, so memory does not grow with the
/// number of queries answered; a traced pass keeps the answers too.
struct Pass {
    indices: Vec<usize>,
    latencies_ms: Vec<f64>,
    /// Digest of each answer, `None` when it was not `Full`.
    digests: Vec<Option<u64>>,
    /// The answers themselves (traced passes only).
    answers: Vec<AnswerSet>,
    wall_s: f64,
    /// Meter delta of the innermost source.
    source: AccessStats,
    /// Meter delta of the stack the engine sees (cache counters).
    stack: AccessStats,
}

fn answer_pass(
    world: &World,
    stack: &dyn WebDatabase,
    limit: Limit,
    cycle: bool,
    tracer: Option<&Tracer>,
) -> Pass {
    let config = EngineConfig::default();
    let schema = world.source.schema();
    let (source0, stack0) = (world.source.stats(), stack.stats());
    let mut pass = Pass {
        indices: Vec::new(),
        latencies_ms: Vec::new(),
        digests: Vec::new(),
        answers: Vec::new(),
        wall_s: 0.0,
        source: AccessStats::default(),
        stack: AccessStats::default(),
    };
    let started = Instant::now();
    let mut k = 0;
    while !limit.done(started, k) && (cycle || k < world.log.len()) {
        let index = k % world.log.len();
        let query = &world.log[index];
        let t0 = Instant::now();
        let answer = match tracer {
            Some(tracer) => {
                Tracer::set_request(k as u64 + 1);
                tracer.span(ANSWER_SPAN, || world.system.answer(stack, query, &config))
            }
            None => world.system.answer(stack, query, &config),
        };
        pass.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.digests.push(full_digest(&answer, schema));
        if tracer.is_some() {
            pass.answers.push(answer);
        }
        pass.indices.push(index);
        k += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.source = world.source.stats().since(&source0);
    pass.stack = stack.stats().since(&stack0);
    pass
}

/// Reference digests: the single-threaded engine on the bare source, one
/// per distinct query index.
fn reference(world: &World, indices: &[usize]) -> BTreeMap<usize, u64> {
    let config = EngineConfig::default();
    let schema = world.source.schema();
    let distinct: BTreeSet<usize> = indices.iter().copied().collect();
    distinct
        .into_iter()
        .map(|i| {
            let answer = world.system.answer(&world.source, &world.log[i], &config);
            (i, answer_digest(&answer, schema))
        })
        .collect()
}

/// Failed checks of one pass against the reference.
fn failures(pass: &Pass, reference: &BTreeMap<usize, u64>) -> u64 {
    pass.indices
        .iter()
        .zip(&pass.digests)
        .filter(|&(i, d)| d.is_none() || reference.get(i) != d.as_ref())
        .count() as u64
}

/// HTTP bodies and full requests for the log: each body binds every
/// attribute of the query, in schema order.
fn http_requests(log: &[ImpreciseQuery], schema: &Schema) -> (Vec<String>, Vec<Vec<u8>>) {
    let path = format!("/indexes/{INDEX}/search");
    let bodies: Vec<String> = log
        .iter()
        .map(|q| {
            let pairs = q
                .bindings()
                .iter()
                .map(|(attr, value)| (schema.attr_name(*attr).to_string(), value.to_json()))
                .collect();
            Json::Obj(vec![("query".to_string(), Json::Obj(pairs))]).to_string_compact()
        })
        .collect();
    let requests = bodies.iter().map(|b| post_request(&path, b)).collect();
    (bodies, requests)
}

/// One closed-loop pass over the wire. Each reply is checked as soon as
/// its latency is recorded, so memory does not grow with the number of
/// requests.
#[derive(Default)]
struct WirePass {
    latencies_ms: Vec<f64>,
    /// Replies received.
    replies: u64,
    /// Replies that failed their check.
    wrong: u64,
    /// Body bytes over all replies.
    body_bytes: u64,
    transport_errors: u64,
    wall_s: f64,
}

impl WirePass {
    fn attempted(&self) -> u64 {
        self.replies + self.transport_errors
    }

    fn failures(&self) -> u64 {
        self.wrong + self.transport_errors
    }
}

fn wire_pass(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    reference: &BTreeMap<usize, u64>,
    limit: Limit,
    tracer: Option<&Tracer>,
) -> WirePass {
    let issued = AtomicUsize::new(0);
    let merged = Mutex::new(WirePass::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            scope.spawn(|| {
                let mut mine = WirePass::default();
                let mut conn = Conn::connect(addr);
                loop {
                    let k = issued.fetch_add(1, Ordering::Relaxed);
                    if limit.done(started, k) {
                        break;
                    }
                    let Ok(c) = conn.as_mut() else {
                        mine.transport_errors += 1;
                        conn = Conn::connect(addr);
                        continue;
                    };
                    let index = k % requests.len();
                    let t0 = Instant::now();
                    let reply = match tracer {
                        Some(tracer) => {
                            Tracer::set_request(k as u64 + 1);
                            tracer.span(HTTP_SPAN, || c.exchange(&requests[index]))
                        }
                        None => c.exchange(&requests[index]),
                    };
                    mine.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    match reply {
                        Ok(r) => {
                            mine.replies += 1;
                            mine.body_bytes += r.body.len() as u64;
                            let ok = reference
                                .get(&index)
                                .is_some_and(|&d| reply_matches(r.status, &r.body, d));
                            mine.wrong += u64::from(!ok);
                        }
                        Err(_) => {
                            mine.transport_errors += 1;
                            conn = Conn::connect(addr);
                        }
                    }
                }
                let mut all = merged.lock().expect("client results poisoned");
                all.latencies_ms.extend(mine.latencies_ms);
                all.replies += mine.replies;
                all.wrong += mine.wrong;
                all.body_bytes += mine.body_bytes;
                all.transport_errors += mine.transport_errors;
            });
        }
    });
    let mut pass = merged.into_inner().expect("client results poisoned");
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// Resident-set high-water mark of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    let mut out = if opts.trace {
        traced_run(opts)
    } else {
        measured_run(opts)
    };
    let error_rate = Ratio {
        part: out.failed as f64,
        base: out.attempted,
    };
    out.report.ratio("error_rate", error_rate, "attempted");
    out
}

/// `--trace 0`: the end-to-end metrics, no tracing anywhere.
fn measured_run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(server) = prepared.take().and_then(|p| p.server) {
            server.shutdown();
        }
        let p = set_up(opts.workload, opts.seed);
        setups.push(p.setup_s);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let timed = Limit::For(Duration::from_secs_f64(opts.seconds), MIN_TIMED);
    let schema = p.world.source.schema().clone();

    let (latencies, answered, wall_s, source) = match &p.server {
        None => {
            let pass = answer_pass(&p.world, &*p.stack, timed, false, None);
            let reference = reference(&p.world, &pass.indices);
            let answered = pass.digests.len();
            out.attempted += answered as u64;
            out.failed += failures(&pass, &reference);
            (pass.latencies_ms, answered, pass.wall_s, pass.source)
        }
        Some(server) => {
            let (_, requests) = http_requests(&p.world.log, &schema);
            let all: Vec<usize> = (0..p.world.log.len()).collect();
            let reference = reference(&p.world, &all);
            let source0 = p.world.source.stats();
            let pass = wire_pass(server.addr(), &requests, &reference, timed, None);
            let source = p.world.source.stats().since(&source0);
            out.attempted += pass.attempted();
            out.failed += pass.failures();
            let answered = pass.replies as usize;
            (pass.latencies_ms, answered, pass.wall_s, source)
        }
    };
    if let Some(server) = p.server {
        server.shutdown();
    }

    let lat = sorted(latencies);
    let r = &mut out.report;
    r.push("setup_s", median(&setups), "s");
    r.push(
        "latency_p50_ms",
        percentile(&lat, 50.0).unwrap_or(0.0),
        "ms",
    );
    match tail_percentile(&lat, 99.0) {
        Some(p99) => r.push("latency_p99_ms", p99, "ms"),
        None => out
            .problems
            .push(format!("{} samples: too few for a p99", lat.len())),
    }
    r.push("throughput_qps", answered as f64 / wall_s, "1/s");
    r.push("peak_rss_mb", peak_rss_mb(), "MiB");
    r.push(
        "source_probes_per_query",
        source.queries_issued as f64 / answered.max(1) as f64,
        "count",
    );
    r.push("samples", lat.len() as f64, "count");
    out
}

fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0).unwrap_or(0.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `--trace 1`: the per-layer metrics.
fn traced_run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let p = set_up(opts.workload, opts.seed);
    let timings = p.world.system.timings();
    out.report.push("data.generate_s", p.world.generate_s, "s");
    out.report
        .push("afd.mine_s", timings.dependency_mining.as_secs_f64(), "s");
    out.report.push(
        "sim.build_s",
        timings.similarity_estimation.as_secs_f64(),
        "s",
    );

    let half = Limit::For(Duration::from_secs_f64(opts.seconds / 2.0), 1);
    let tracer = Tracer::new();
    let mut spans: Vec<Span> = Vec::new();
    match p.server {
        None => traced_in_process(
            &mut out,
            &p.world,
            &p.stack,
            opts.workload,
            half,
            &tracer,
            &mut spans,
        ),
        Some(server) => traced_http(&mut out, &p.world, server, half, &tracer, &mut spans),
    }
    let path = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}.spans.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    if let Err(e) = write_jsonl(&spans, &path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    out
}

/// Metrics comparing the untraced and traced passes of `n` queries each:
/// source probes per query (untraced) and the tracing overhead on the
/// median latency.
fn pass_metrics(
    r: &mut Report,
    plain_ms: &[f64],
    traced_ms: &[f64],
    source: &AccessStats,
    n: usize,
) {
    let p50 = |ms: &[f64]| percentile(&sorted(ms.to_vec()), 50.0).unwrap_or(0.0);
    r.push(
        "source_probes_per_query",
        source.queries_issued as f64 / n.max(1) as f64,
        "count",
    );
    r.push("trace.overhead_ms", p50(traced_ms) - p50(plain_ms), "ms");
    r.push("trace.queries", n as f64, "count");
}

/// Storage-layer metrics of one traced pass of `n` queries.
fn storage_metrics(
    r: &mut Report,
    spans: &[Span],
    source_calls: (u64, u64, u64),
    stack: &AccessStats,
    n: usize,
) {
    let per = |x: f64| x / n.max(1) as f64;
    let (single, plans, rows) = source_calls;
    let stack_ms = busy_ms(spans, STACK_SPAN);
    let source_ms = busy_ms(spans, SOURCE_SPAN);
    r.push("storage.busy_ms", per(source_ms), "ms");
    r.push("storage.plan_calls", per(plans as f64), "count");
    r.push("storage.single_calls", per(single as f64), "count");
    r.push("storage.rows_returned", per(rows as f64), "count");
    r.push("storage.cache_busy_ms", per(stack_ms - source_ms), "ms");
    r.ratio(
        "storage.cache_hit_ratio",
        Ratio {
            part: stack.cache_hits as f64,
            base: stack.cache_hits + stack.cache_misses,
        },
        "lookups",
    );
    r.push(
        "storage.cache_evictions",
        per(stack.cache_evictions as f64),
        "count",
    );
}

/// `core.answer_ms` and `core.self_ms` from the answer spans, after
/// checking that every storage span nests inside its answer span.
fn answer_metrics(out: &mut Outcome, spans: &[Span], n: usize) -> f64 {
    let per = |x: f64| x / n.max(1) as f64;
    let selfs = match self_times_ns(spans, ANSWER_SPAN) {
        Ok(selfs) => selfs,
        Err(e) => {
            out.problems.push(e);
            Vec::new()
        }
    };
    let answer_ns: u64 = selfs.iter().map(|(s, _)| s.dur_ns()).sum();
    let self_ns: u64 = selfs.iter().map(|(_, own)| own).sum();
    let children_ns: u64 = spans
        .iter()
        .filter(|s| s.name == STACK_SPAN && selfs.iter().any(|(p, _)| p.id == s.parent))
        .map(Span::dur_ns)
        .sum();
    // Stage check: answer = self + stack, exactly, once the spans nest.
    out.note(answer_ns == self_ns + children_ns, || {
        format!("answer {answer_ns} ns != self {self_ns} ns + stack {children_ns} ns")
    });
    out.report.push("core.answer_ms", per(ms(answer_ns)), "ms");
    out.report.push("core.self_ms", per(ms(self_ns)), "ms");
    per(ms(answer_ns))
}

/// Per-query engine counters from the answers themselves.
fn engine_metrics(r: &mut Report, answers: &[AnswerSet]) {
    let n = answers.len().max(1) as f64;
    let sum = |f: fn(&AnswerSet) -> u64| answers.iter().map(f).sum::<u64>();
    r.push(
        "core.probes_attempted",
        sum(|a| a.degradation.probes_attempted) as f64 / n,
        "count",
    );
    r.push(
        "core.probes_deduped",
        sum(|a| a.degradation.probes_deduped) as f64 / n,
        "count",
    );
    r.push(
        "core.base_set_size",
        sum(|a| a.base_set_size as u64) as f64 / n,
        "count",
    );
    let examined = sum(|a| a.stats.tuples_examined as u64);
    let relevant = sum(|a| a.stats.relevant_found as u64);
    r.push("core.tuples_examined", examined as f64 / n, "count");
    r.push("core.relevant_found", relevant as f64 / n, "count");
    r.ratio(
        "core.work_per_relevant",
        Ratio {
            part: examined as f64,
            base: relevant,
        },
        "relevant tuples",
    );
}

/// Replayed sub-stage totals.
#[derive(Debug, Default)]
struct Replay {
    base_set_ns: u64,
    base_probes: u64,
    compile_ns: u64,
    plan_steps: u64,
    sim_evals: u64,
    sim_ns: u64,
    rank_ns: u64,
    /// Queries whose replay did not reproduce the engine's work.
    mismatches: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replay the engine's public sub-stages for each answered query on a
/// separate source: base-set derivation, plan compilation, the `Tsim`
/// comparisons over the candidates the probes return, and the final
/// ranking. The replay must reproduce the answer it shadows.
fn replay_stages(
    system: &AimqSystem,
    source: &InMemoryWebDb,
    log: &[ImpreciseQuery],
    indices: &[usize],
    answers: &[AnswerSet],
) -> Replay {
    let config = EngineConfig::default();
    let model = system.model();
    let mut r = Replay::default();
    for (&index, answer) in indices.iter().zip(answers) {
        let query = &log[index];
        let mut strategy = GuidedRelax::new(system.ordering().clone());
        let mut report = DegradationReport::default();
        let t = Instant::now();
        let (_, base_set) = derive_base_set(
            source,
            query,
            model,
            &mut strategy,
            config.max_relax_level,
            &mut report,
        );
        r.base_set_ns += elapsed_ns(t);
        r.base_probes += report.probes_attempted;

        let t = Instant::now();
        let plans: Vec<(Vec<AttrId>, Vec<SelectionQuery>)> = base_set
            .iter()
            .take(config.max_base_tuples)
            .map(|base| {
                let bound = base.bound_attrs();
                let tuple_query = tuple_query_for(model, base, &bound);
                let mut plan = strategy.plan(&bound, config.max_relax_level);
                plan.truncate(config.max_steps_per_tuple);
                let probes = compile_probes(&tuple_query, &plan);
                (bound, probes.into_iter().map(|p| p.query).collect())
            })
            .collect();
        r.compile_ns += elapsed_ns(t);
        r.plan_steps += plans.iter().map(|(_, p)| p.len() as u64).sum::<u64>();

        // The candidates the engine compares: every tuple a probe returns
        // that no earlier probe of this query returned.
        let mut examined: HashSet<Tuple> = HashSet::new();
        let mut extended: Vec<&Tuple> = Vec::new();
        for t in &base_set {
            if examined.insert(t.clone()) {
                extended.push(t);
            }
        }
        let base_count = extended.len();
        let mut issued: BTreeSet<SelectionQuery> = BTreeSet::new();
        let mut pairs: Vec<(usize, Tuple)> = Vec::new();
        for (bi, (_, probes)) in plans.iter().enumerate() {
            let pending: Vec<SelectionQuery> = probes
                .iter()
                .filter(|q| !q.predicates().is_empty() && issued.insert((*q).clone()))
                .cloned()
                .collect();
            for page in source.try_query_plan(&pending).into_iter().flatten() {
                for candidate in page.tuples {
                    if examined.insert(candidate.clone()) {
                        pairs.push((bi, candidate));
                    }
                }
            }
        }

        let t = Instant::now();
        let mut passed: Vec<usize> = Vec::new();
        for (i, (bi, candidate)) in pairs.iter().enumerate() {
            let sim = model.tuple_similarity(&base_set[*bi], candidate, &plans[*bi].0);
            if black_box(sim) > config.t_sim {
                passed.push(i);
            }
        }
        r.sim_ns += elapsed_ns(t);
        r.sim_evals += pairs.len() as u64;

        let t = Instant::now();
        extended.extend(passed.iter().map(|&i| &pairs[i].1));
        let mut ranked: Vec<(f64, &Tuple)> = extended
            .iter()
            .map(|&t| (model.query_similarity(query, t), t))
            .collect();
        ranked.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| a.1.values().cmp(b.1.values()))
        });
        ranked.truncate(config.top_k);
        r.rank_ns += elapsed_ns(t);

        let same_top_k = ranked.iter().map(|(s, t)| (s.to_bits(), *t)).eq(answer
            .answers
            .iter()
            .map(|a| (a.similarity.to_bits(), &a.tuple)));
        if !same_top_k
            || examined.len() != answer.stats.tuples_examined
            || base_count + passed.len() != answer.stats.relevant_found
        {
            r.mismatches += 1;
        }
    }
    r
}

fn replay_metrics(out: &mut Outcome, replay: &Replay, n: usize) {
    let per = |x: f64| x / n.max(1) as f64;
    let r = &mut out.report;
    r.push("core.base_set_ms", per(ms(replay.base_set_ns)), "ms");
    r.push("core.base_probes", per(replay.base_probes as f64), "count");
    r.push("core.plan_compile_ms", per(ms(replay.compile_ns)), "ms");
    r.push("core.plan_steps", per(replay.plan_steps as f64), "count");
    r.push("sim.tuple_sim_evals", per(replay.sim_evals as f64), "count");
    r.push("sim.tuple_sim_us", per(replay.sim_ns as f64 / 1e3), "us");
    r.push("sim.rank_us", per(replay.rank_ns as f64 / 1e3), "us");
    out.note(replay.mismatches == 0, || {
        format!(
            "{} replayed queries did not reproduce the engine's answer",
            replay.mismatches
        )
    });
}

/// Replay each captured plan through a fresh `PlanExecutor`.
fn plan_metrics(
    r: &mut Report,
    relation: &Relation,
    plans: &[(u64, Vec<SelectionQuery>)],
    n: usize,
) {
    let mut total = ExecStats::default();
    for (_, plan) in plans {
        let mut exec = PlanExecutor::new(relation);
        for query in plan {
            black_box(exec.execute(query));
        }
        let s = exec.stats();
        total.terms_evaluated += s.terms_evaluated;
        total.term_memo_hits += s.term_memo_hits;
        total.intersections_computed += s.intersections_computed;
        total.prefix_memo_hits += s.prefix_memo_hits;
    }
    let per = |x: u64| x as f64 / n.max(1) as f64;
    // Every per-attribute term is one term-memo lookup and one
    // prefix-memo lookup, so both ratios share this base.
    let lookups = total.terms_evaluated + total.term_memo_hits;
    r.push("storage.posting_terms", per(total.terms_evaluated), "count");
    r.push(
        "storage.intersections",
        per(total.intersections_computed),
        "count",
    );
    r.ratio(
        "storage.term_memo_hit_ratio",
        Ratio {
            part: total.term_memo_hits as f64,
            base: lookups,
        },
        "term lookups",
    );
    r.ratio(
        "storage.prefix_memo_hit_ratio",
        Ratio {
            part: total.prefix_memo_hits as f64,
            base: lookups,
        },
        "prefix lookups",
    );
}

fn zero_serve_and_http(r: &mut Report) {
    for (name, unit) in [
        ("serve.overhead_ms", "ms"),
        ("serve.max_queue_depth", "count"),
        ("serve.replies_dropped", "count"),
        ("http.overhead_ms", "ms"),
        ("http.decode_us", "us"),
        ("catalog.json_parse_us", "us"),
        ("catalog.json_encode_us", "us"),
        ("http.response_bytes", "bytes"),
    ] {
        r.push(name, 0.0, unit);
    }
}

fn traced_in_process(
    out: &mut Outcome,
    world: &World,
    untraced: &Arc<dyn WebDatabase>,
    workload: Workload,
    half: Limit,
    tracer: &Arc<Tracer>,
    all_spans: &mut Vec<Span>,
) {
    let plain = answer_pass(world, &**untraced, half, false, None);
    let n = plain.digests.len();
    let ts = traced_stack(workload, &world.source, tracer);
    let traced = answer_pass(world, &*ts.stack, Limit::Count(n), false, Some(tracer));
    let (spans, plans) = tracer.take();

    let reference = reference(world, &plain.indices);
    out.attempted += 2 * n as u64;
    out.failed += failures(&plain, &reference) + failures(&traced, &reference);
    // Self-test of the decorators: same answers, same source meter.
    out.note(plain.digests == traced.digests, || {
        "traced answers differ from untraced answers".to_string()
    });
    out.note(plain.source == traced.source, || {
        format!(
            "source meter differs: untraced {:?}, traced {:?}",
            plain.source, traced.source
        )
    });

    let r = &mut out.report;
    pass_metrics(
        r,
        &plain.latencies_ms,
        &traced.latencies_ms,
        &plain.source,
        n,
    );
    storage_metrics(r, &spans, ts.source_calls.snapshot(), &traced.stack, n);
    plan_metrics(r, world.source.relation(), &plans, n);
    answer_metrics(out, &spans, n);
    engine_metrics(&mut out.report, &traced.answers);

    let replay_source = InMemoryWebDb::new(world.source.relation().clone());
    let replay = replay_stages(
        &world.system,
        &replay_source,
        &world.log,
        &traced.indices,
        &traced.answers,
    );
    replay_metrics(out, &replay, n);
    zero_serve_and_http(&mut out.report);
    all_spans.extend(spans);
}

/// Time `f` over `rounds` rounds of `items` and return µs per item.
fn micro_us<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for _ in 0..rounds {
        for item in items {
            f(item);
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (rounds * items.len()).max(1) as f64
}

fn traced_http(
    out: &mut Outcome,
    world: &World,
    server: AimqHttpServer,
    half: Limit,
    tracer: &Arc<Tracer>,
    all_spans: &mut Vec<Span>,
) {
    let schema = world.source.schema().clone();
    let (bodies, requests) = http_requests(&world.log, &schema);
    let all: Vec<usize> = (0..world.log.len()).collect();
    let reference = reference(world, &all);

    // Untraced wire pass.
    let source0 = world.source.stats();
    let plain = wire_pass(server.addr(), &requests, &reference, half, None);
    let plain_source = world.source.stats().since(&source0);
    server.shutdown();
    let n = plain.replies as usize;

    // Traced wire pass: decorators in the stack, spans around each exchange.
    let ts = traced_stack(Workload::CardbHttp, &world.source, tracer);
    warm(&world.system, &*ts.stack, &world.log);
    let (warm_spans, _) = tracer.take();
    all_spans.extend(warm_spans);
    let calls0 = ts.source_calls.snapshot();
    let (stack0, source0) = (ts.stack.stats(), world.source.stats());
    let traced_server = start_server(&world.system, &ts.stack);
    let traced = wire_pass(
        traced_server.addr(),
        &requests,
        &reference,
        Limit::Count(n),
        Some(tracer),
    );
    let serve_stats: ServeStatsSnapshot = traced_server.shutdown();
    let (stack1, source1) = (ts.stack.stats(), world.source.stats());
    let calls1 = ts.source_calls.snapshot();
    let (wire_spans, _) = tracer.take();
    let traced_source = source1.since(&source0);

    out.attempted += plain.attempted() + traced.attempted();
    out.failed += plain.failures() + traced.failures();
    out.note(plain_source == traced_source, || {
        format!("source meter differs: untraced {plain_source:?}, traced {traced_source:?}")
    });

    let wire_mean = mean(&traced.latencies_ms);
    let r = &mut out.report;
    pass_metrics(
        r,
        &plain.latencies_ms,
        &traced.latencies_ms,
        &plain_source,
        n,
    );
    let calls = (
        calls1.0 - calls0.0,
        calls1.1 - calls0.1,
        calls1.2 - calls0.2,
    );
    let replies = traced.replies as usize;
    storage_metrics(r, &wire_spans, calls, &stack1.since(&stack0), replies);
    r.push(
        "serve.max_queue_depth",
        serve_stats.max_queue_depth as f64,
        "count",
    );
    r.push(
        "serve.replies_dropped",
        serve_stats.replies_dropped as f64,
        "count",
    );
    r.push(
        "http.response_bytes",
        traced.body_bytes as f64 / replies.max(1) as f64,
        "bytes",
    );
    all_spans.extend(wire_spans);

    // In-process serving on the same warm stack: submit -> wait.
    let serve = QueryServer::start(
        Arc::clone(&world.system),
        Arc::clone(&ts.stack),
        serve_config(),
    );
    let mut serve_latencies = Vec::with_capacity(n);
    for k in 0..n {
        let index = k % world.log.len();
        let query = world.log[index].clone();
        let t0 = Instant::now();
        let result = serve.submit(query).map(|ticket| ticket.wait());
        serve_latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let ok = matches!(result, Ok(Ok(outcome))
            if full_digest(&outcome.answer, &schema).is_some_and(|d| reference.get(&index) == Some(&d)));
        out.failed += u64::from(!ok);
    }
    serve.shutdown();
    let (serve_spans, _) = tracer.take();
    all_spans.extend(serve_spans);

    // The engine called directly on the same stack: answer and self time.
    let direct = answer_pass(world, &*ts.stack, Limit::Count(n), true, Some(tracer));
    let (spans, plans) = tracer.take();
    out.attempted += direct.digests.len() as u64;
    out.failed += failures(&direct, &reference);
    let answer_ms = answer_metrics(out, &spans, n);
    engine_metrics(&mut out.report, &direct.answers);
    plan_metrics(&mut out.report, world.source.relation(), &plans, n);
    let serve_mean = mean(&serve_latencies);
    out.report
        .push("serve.overhead_ms", serve_mean - answer_ms, "ms");
    out.report
        .push("http.overhead_ms", wire_mean - serve_mean, "ms");
    all_spans.extend(spans);

    let replay_source = InMemoryWebDb::new(world.source.relation().clone());
    let replay = replay_stages(
        &world.system,
        &replay_source,
        &world.log,
        &direct.indices,
        &direct.answers,
    );
    replay_metrics(out, &replay, n);

    // Wire-format stages on the captured bytes.
    let rounds = 200;
    let decode = micro_us(&requests, rounds, |bytes| {
        let mut decoder = Decoder::new();
        decoder.extend(bytes);
        black_box(decoder.try_decode().ok());
    });
    let parse = micro_us(&bodies, rounds, |body| {
        black_box(Json::parse(body).ok());
    });
    let encode = micro_us(
        &direct.answers[..world.log.len().min(direct.answers.len())],
        20,
        |a| {
            black_box(a.to_json(&schema).to_string_compact());
        },
    );
    out.report.push("http.decode_us", decode, "us");
    out.report.push("catalog.json_parse_us", parse, "us");
    out.report.push("catalog.json_encode_us", encode, "us");
}
