#[expect(
    clippy::disallowed_types,
    reason = "import for the insert-only `examined` set below"
)]
use std::collections::HashSet;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use aimq_catalog::{AttrId, ImpreciseQuery, Json, Plain, Schema, SelectionQuery, Tuple};
use aimq_sim::SimilarityModel;
use aimq_storage::{QueryError, QueryPage, SourceHealth, WebDatabase};
use serde::{Deserialize, Serialize};

use crate::base_query::derive_base_set_memoized;
use crate::bind::tuple_query_for;
use crate::relax::{PlannedProbe, RelaxationStep};
use crate::RelaxationStrategy;

/// Tuning knobs of Algorithm 1. The paper leaves `Tsim` and `k` "tuned by
/// the system designers" (footnote 4); defaults follow the evaluation
/// section (Tsim sweeps 0.5–0.9, top-10 answers shown to users).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Similarity threshold `Tsim`: a relaxation result joins the extended
    /// set only if its similarity to its base tuple exceeds this.
    pub t_sim: f64,
    /// Number of ranked answers returned (`Top-k`).
    pub top_k: usize,
    /// Maximum number of attributes relaxed simultaneously.
    pub max_relax_level: usize,
    /// Cap on how many base-set tuples are expanded (each expansion issues
    /// a full relaxation-query sequence).
    pub max_base_tuples: usize,
    /// Optional early stop: end the whole search once this many relevant
    /// tuples **beyond the base set** are in the extended set. Figure
    /// 6/7's protocol stops at 20. Base-set tuples are relevant by
    /// construction and do not count toward the target — the knob asks
    /// for relaxation-found answers, so `target_relevant <= |base set|`
    /// still relaxes (an earlier revision counted the base set and
    /// silently short-circuited after at most one relaxed answer).
    pub target_relevant: Option<usize>,
    /// Cap on relaxation queries issued per base tuple. Wide schemas
    /// (CensusDB has 13 attributes) make the multi-attribute combination
    /// space explode; the cap keeps the greedy prefix — which contains
    /// the least-important relaxations — and drops the tail.
    pub max_steps_per_tuple: usize,
    /// Deduplicate the probe plan within one engine call: semantically
    /// identical relaxation queries (canonically equal
    /// [`SelectionQuery`]s) are issued once, and the page is fanned back
    /// out to every interested base tuple for the `Tsim` filter. Base-set
    /// tuples that agree on their non-relaxed attributes generate
    /// byte-identical probes, so redundancy is the common case. On by
    /// default; turn off to reproduce the non-deduplicating engine (the
    /// eval harness does, to measure the saving).
    pub dedup_probes: bool,
}

/// Numeric knobs and flags.
impl Plain for EngineConfig {}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            t_sim: 0.6,
            top_k: 10,
            max_relax_level: 2,
            max_base_tuples: 20,
            target_relevant: None,
            max_steps_per_tuple: 256,
            dedup_probes: true,
        }
    }
}

impl EngineConfig {
    /// Every knob as a deterministic [`Json`] object — the body served
    /// by `GET /config` (field order is declaration order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("t_sim", Json::Num(self.t_sim)),
            ("top_k", Json::Num(self.top_k as f64)),
            ("max_relax_level", Json::Num(self.max_relax_level as f64)),
            ("max_base_tuples", Json::Num(self.max_base_tuples as f64)),
            (
                "target_relevant",
                match self.target_relevant {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            ),
            (
                "max_steps_per_tuple",
                Json::Num(self.max_steps_per_tuple as f64),
            ),
            ("dedup_probes", Json::Bool(self.dedup_probes)),
        ])
    }

    /// Returns a copy with the knobs named in `patch` (a JSON object,
    /// e.g. `{"top_k": 5, "t_sim": 0.7}`) overridden — the semantics of
    /// `PATCH /config`. Unknown keys, wrong types, and out-of-range
    /// values are rejected wholesale: either every change applies or
    /// none does.
    pub fn with_json_patch(&self, patch: &Json) -> Result<EngineConfig, String> {
        let pairs = patch
            .as_object()
            .ok_or_else(|| "config patch must be a JSON object".to_string())?;
        let mut next = *self;
        for (key, value) in pairs {
            match key.as_str() {
                "t_sim" => {
                    let t = value
                        .as_f64()
                        .filter(|t| t.is_finite() && (0.0..=1.0).contains(t))
                        .ok_or_else(|| "`t_sim` must be a number in [0, 1]".to_string())?;
                    next.t_sim = t;
                }
                "top_k" => next.top_k = patch_usize(value, "top_k")?,
                "max_relax_level" => next.max_relax_level = patch_usize(value, "max_relax_level")?,
                "max_base_tuples" => next.max_base_tuples = patch_usize(value, "max_base_tuples")?,
                "target_relevant" => {
                    next.target_relevant = match value {
                        Json::Null => None,
                        v @ (Json::Bool(_)
                        | Json::Num(_)
                        | Json::Str(_)
                        | Json::Arr(_)
                        | Json::Obj(_)) => Some(patch_usize(v, "target_relevant")?),
                    };
                }
                "max_steps_per_tuple" => {
                    next.max_steps_per_tuple = patch_usize(value, "max_steps_per_tuple")?;
                }
                "dedup_probes" => {
                    next.dedup_probes = value
                        .as_bool()
                        .ok_or_else(|| "`dedup_probes` must be a boolean".to_string())?;
                }
                other => return Err(format!("unknown config knob `{other}`")),
            }
        }
        Ok(next)
    }
}

/// Shared `PATCH /config` helper: a non-negative integer knob.
fn patch_usize(value: &Json, key: &str) -> Result<usize, String> {
    value
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

/// The paper's efficiency bookkeeping (Section 6.3):
/// `Work/RelevantTuple = |T_Extracted| / |T_Relevant|` — "a measure of
/// the average number of tuples that an user would have to look at before
/// finding a relevant tuple".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Boolean queries issued against the source while answering.
    pub queries_issued: u64,
    /// Total tuples the source returned, duplicates included (raw access
    /// meter).
    pub tuples_extracted: u64,
    /// Distinct tuples examined (the paper's `T_Extracted`: a user looks
    /// at each retrieved tuple once, however many relaxation queries
    /// return it).
    pub tuples_examined: usize,
    /// Distinct tuples whose similarity cleared `Tsim`, base set included
    /// (the paper's `T_Relevant`).
    pub relevant_found: usize,
}

impl WorkStats {
    /// `Work/RelevantTuple`; `None` when nothing relevant was found.
    pub fn work_per_relevant(&self) -> Option<f64> {
        (self.relevant_found > 0).then(|| self.tuples_examined as f64 / self.relevant_found as f64)
    }

    /// The access meter as a deterministic [`Json`] object (field order
    /// is declaration order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queries_issued", Json::Num(self.queries_issued as f64)),
            ("tuples_extracted", Json::Num(self.tuples_extracted as f64)),
            ("tuples_examined", Json::Num(self.tuples_examined as f64)),
            ("relevant_found", Json::Num(self.relevant_found as f64)),
        ])
    }
}

/// How much of the fault-free answer a degraded run can still vouch for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Completeness {
    /// No probe failed, was skipped, or came back truncated: the answer
    /// is exactly what a fault-free run at the same seeds produces (it
    /// may still be legitimately empty).
    #[default]
    Full,
    /// Some probes failed, were abandoned, or returned clipped pages.
    /// Every returned answer is genuine and correctly ranked among the
    /// answers found, but relevant tuples reachable only through the
    /// failed probes may be missing.
    Partial,
    /// Faults occurred *and* the answer set is empty — the engine cannot
    /// distinguish "nothing matches" from "everything relevant hid
    /// behind the failed probes".
    Empty,
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completeness::Full => write!(f, "full"),
            Completeness::Partial => write!(f, "partial"),
            Completeness::Empty => write!(f, "empty"),
        }
    }
}

/// The honest completeness report attached to every [`AnswerSet`]: what
/// Algorithm 1 attempted against the source, what failed, what was
/// abandoned, and the resulting [`Completeness`] verdict.
///
/// Counters are engine-level (post-resilience): a probe that a
/// [`aimq_storage::ResilientWebDb`] retried into success counts as one
/// successful attempt here, with the raw churn visible in
/// [`DegradationReport::retries`] (taken from the source's access-meter
/// delta).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Probe queries the engine issued (base derivation + relaxation).
    /// Planned probes answered by the in-call dedup memo are *not*
    /// counted here — they never reached the source; see
    /// [`DegradationReport::probes_deduped`].
    pub probes_attempted: u64,
    /// Planned probes that canonically equaled an earlier probe of this
    /// call and were answered by replaying its page instead of
    /// re-querying the source ([`EngineConfig::dedup_probes`]).
    pub probes_deduped: u64,
    /// Probes that came back with a [`QueryError`] after any retries.
    pub probes_failed: u64,
    /// Planned relaxation probes abandoned un-issued after the source
    /// became unavailable.
    pub probes_skipped: u64,
    /// Relaxation levels cut short, summed over abandoned base tuples (a
    /// level is counted when at least one of its steps was skipped).
    pub levels_abandoned: u64,
    /// Result pages the source clipped to its page limit.
    pub truncated_pages: u64,
    /// Source-level retries spent on this query (access-meter delta).
    pub retries: u64,
    /// Circuit-breaker trips during this query (access-meter delta).
    pub breaker_trips: u64,
    /// The source became [`QueryError::Unavailable`] mid-query; all work
    /// after that point was abandoned.
    pub source_lost: bool,
    /// Per-source completeness breakdown, populated when the source is a
    /// federation (`aimq_storage::FederatedWebDb`): scatter outcomes,
    /// contributed tuples, hedges and breaker state per member, scoped to
    /// this call via [`aimq_storage::SourceHealth::since`]. Empty for
    /// single-source databases.
    pub sources: Vec<SourceHealth>,
    /// The overall verdict.
    pub completeness: Completeness,
}

impl DegradationReport {
    /// `true` when any fault affected this answer.
    pub fn is_degraded(&self) -> bool {
        self.completeness != Completeness::Full
    }

    /// Record one engine-visible probe outcome (shared by the base-query
    /// derivation and the relaxation loop).
    pub(crate) fn note_attempt(&mut self) {
        self.probes_attempted = self.probes_attempted.saturating_add(1);
    }

    /// Record a failed probe; flags `source_lost` on terminal errors.
    pub(crate) fn note_failure(&mut self, error: QueryError) {
        self.probes_failed = self.probes_failed.saturating_add(1);
        if !error.is_retryable() {
            self.source_lost = true;
        }
    }

    /// Record relaxation steps dropped unprobed, and the distinct
    /// levels they span.
    pub(crate) fn note_skipped(&mut self, steps: &[RelaxationStep]) {
        self.probes_skipped = self.probes_skipped.saturating_add(steps.len() as u64);
        self.levels_abandoned = self.levels_abandoned.saturating_add(distinct_levels(steps));
    }

    /// Record a clipped result page.
    pub(crate) fn note_truncated(&mut self) {
        self.truncated_pages = self.truncated_pages.saturating_add(1);
    }

    /// The report as a deterministic [`Json`] object (field order is
    /// declaration order; `sources` embeds each member's
    /// [`SourceHealth::to_json`], `completeness` its `Display` form) —
    /// served by the HTTP search route inside each answer set.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("probes_attempted", Json::Num(self.probes_attempted as f64)),
            ("probes_deduped", Json::Num(self.probes_deduped as f64)),
            ("probes_failed", Json::Num(self.probes_failed as f64)),
            ("probes_skipped", Json::Num(self.probes_skipped as f64)),
            ("levels_abandoned", Json::Num(self.levels_abandoned as f64)),
            ("truncated_pages", Json::Num(self.truncated_pages as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("breaker_trips", Json::Num(self.breaker_trips as f64)),
            ("source_lost", Json::Bool(self.source_lost)),
            (
                "sources",
                Json::Arr(self.sources.iter().map(SourceHealth::to_json).collect()),
            ),
            ("completeness", Json::Str(self.completeness.to_string())),
        ])
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "completeness={} probes={} deduped={} failed={} skipped={} levels-abandoned={} \
             truncated={} retries={} breaker-trips={}{}",
            self.completeness,
            self.probes_attempted,
            self.probes_deduped,
            self.probes_failed,
            self.probes_skipped,
            self.levels_abandoned,
            self.truncated_pages,
            self.retries,
            self.breaker_trips,
            if self.source_lost { " source-lost" } else { "" }
        )?;
        for source in &self.sources {
            write!(f, " [{source}]")?;
        }
        Ok(())
    }
}

/// How an answer entered the extended set — the explainability hook:
/// "this Accord is here because the engine relaxed Make and Model of a
/// base-set Camry".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// The tuple satisfied the (possibly generalized) base query itself.
    BaseSet,
    /// The tuple came from outside the engine (e.g. a caller-supplied
    /// pool re-ranked by the feedback tuner).
    External,
    /// The tuple was retrieved by relaxing `relaxed_attrs` of the
    /// base-set tuple at index `base_index` (into the base set).
    Relaxed {
        /// Index of the originating tuple in the base set.
        base_index: usize,
        /// Attributes whose constraints were dropped.
        relaxed_attrs: Vec<AttrId>,
    },
}

impl Provenance {
    /// The provenance as a tagged [`Json`] object: `{"kind":"base_set"}`,
    /// `{"kind":"external"}`, or `{"kind":"relaxed","base_index":i,
    /// "relaxed_attrs":[names...]}` with attribute names resolved
    /// against `schema`.
    #[must_use]
    pub fn to_json(&self, schema: &Schema) -> Json {
        match self {
            Provenance::BaseSet => Json::obj(vec![("kind", Json::Str("base_set".into()))]),
            Provenance::External => Json::obj(vec![("kind", Json::Str("external".into()))]),
            Provenance::Relaxed {
                base_index,
                relaxed_attrs,
            } => Json::obj(vec![
                ("kind", Json::Str("relaxed".into())),
                ("base_index", Json::Num(*base_index as f64)),
                (
                    "relaxed_attrs",
                    Json::Arr(
                        relaxed_attrs
                            .iter()
                            .map(|&a| Json::Str(schema.attr_name(a).to_string()))
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

/// One ranked answer.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAnswer {
    /// The answer tuple.
    pub tuple: Tuple,
    /// Its similarity to the *query* (the final ranking key).
    pub similarity: f64,
    /// How the engine found this tuple.
    pub provenance: Provenance,
}

impl RankedAnswer {
    /// The answer as a deterministic [`Json`] object: the tuple keyed by
    /// attribute name, the shortest-roundtrip similarity, and the
    /// provenance tag.
    #[must_use]
    pub fn to_json(&self, schema: &Schema) -> Json {
        Json::obj(vec![
            ("tuple", self.tuple.to_json(schema)),
            ("similarity", Json::Num(self.similarity)),
            ("provenance", self.provenance.to_json(schema)),
        ])
    }
}

/// The result of answering one imprecise query.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// Top-k answers, descending similarity.
    pub answers: Vec<RankedAnswer>,
    /// Access-metering statistics for this query.
    pub stats: WorkStats,
    /// The (possibly generalized) precise query whose answers formed the
    /// base set.
    pub base_query: SelectionQuery,
    /// Size of the base set `|Abs|`.
    pub base_set_size: usize,
    /// What failed, what was skipped, and how complete the answer is.
    pub degradation: DegradationReport,
}

impl AnswerSet {
    /// The whole result as one deterministic [`Json`] object — the body
    /// of a `POST /indexes/:name/search` response. Byte-for-byte
    /// reproducible: answers keep their ranked order, objects their
    /// declaration order, and every number renders through the canonical
    /// path, so the HTTP wire form of a result equals the in-process
    /// serialization of the same [`AnswerSet`].
    #[must_use]
    pub fn to_json(&self, schema: &Schema) -> Json {
        Json::obj(vec![
            (
                "answers",
                Json::Arr(self.answers.iter().map(|a| a.to_json(schema)).collect()),
            ),
            ("stats", self.stats.to_json()),
            (
                "base_query",
                Json::Str(self.base_query.display_with(schema).to_string()),
            ),
            ("base_set_size", Json::Num(self.base_set_size as f64)),
            ("degradation", self.degradation.to_json()),
        ])
    }
}

/// Distinct *strategy-assigned* relaxation levels among the plan steps.
/// Levels come from [`RelaxationStep::level`], not from step sizes — two
/// same-size steps at different levels are two levels.
fn distinct_levels(steps: &[RelaxationStep]) -> u64 {
    let mut levels: Vec<usize> = steps.iter().map(|s| s.level).collect();
    levels.sort_unstable();
    levels.dedup();
    levels.len() as u64
}

/// The next window of pending probes, drawn from `probes` (the steps
/// not yet consumed, in plan order): up to `size` queries, skipping empty
/// probes and probes the memo replays. The window ends before the first
/// query it already holds — whether that repeat is replayed or re-issued
/// depends on how the earlier occurrence resolves. Every query in the
/// window is therefore one a query-at-a-time loop would issue, in the
/// same order, so fault schedules keyed on query position see the same
/// traffic.
fn next_window(probes: &[PlannedProbe], size: usize, memo: &ProbeMemo) -> Vec<SelectionQuery> {
    let mut window: Vec<SelectionQuery> = Vec::new();
    for probe in probes {
        let key = &probe.query;
        if window.len() == size {
            break;
        }
        if key.predicates().is_empty() || memo.holds(key) {
            continue;
        }
        if window.contains(key) {
            break;
        }
        window.push(key.clone());
    }
    window
}

/// Per-call probe memo backing the planner's dedup: every successful page
/// of this engine call, keyed on the canonical query form. A planned
/// probe whose canonical query already succeeded replays the recorded
/// page instead of re-querying the source; failed probes are never
/// memoized (the next identical probe retries the source).
///
/// The memo spans the *whole* call — base-set derivation included — so a
/// relaxation that reproduces the base query (common when a base tuple's
/// bands equal the query's) is also free. It lives and dies with one
/// `answer_imprecise_query` call; cross-call memoization is the job of
/// [`aimq_storage::CachedWebDb`] at the source boundary.
pub(crate) struct ProbeMemo {
    enabled: bool,
    pages: BTreeMap<SelectionQuery, QueryPage>,
}

impl ProbeMemo {
    pub(crate) fn new(enabled: bool) -> Self {
        ProbeMemo {
            enabled,
            pages: BTreeMap::new(),
        }
    }

    /// A memo that never replays nor records (reproduces the
    /// non-deduplicating engine).
    pub(crate) fn disabled() -> Self {
        Self::new(false)
    }

    /// The recorded page for the canonical `key`, if dedup is on and an
    /// identical probe already succeeded this call.
    pub(crate) fn replay(&self, key: &SelectionQuery) -> Option<QueryPage> {
        if !self.enabled {
            return None;
        }
        self.pages.get(key).cloned()
    }

    /// Whether [`ProbeMemo::replay`] would return a page for `key`,
    /// without cloning it.
    pub(crate) fn holds(&self, key: &SelectionQuery) -> bool {
        self.enabled && self.pages.contains_key(key)
    }

    /// Record a successful page under the canonical `key`. First success
    /// wins; later identical probes replay it.
    pub(crate) fn record(&mut self, key: SelectionQuery, page: &QueryPage) {
        if self.enabled {
            self.pages.entry(key).or_insert_with(|| page.clone());
        }
    }
}

/// Algorithm 1 ("Finding Relevant Answers") of the paper, hardened for
/// fallible sources.
///
/// `model` supplies both `Sim` functions (tuple–tuple for the `Tsim`
/// filter, query–tuple for the final ranking); `strategy` decides the
/// relaxation order (Guided vs Random).
///
/// The engine never panics on and never hides a source failure: a failed
/// relaxation probe is recorded in the [`DegradationReport`] and skipped;
/// a terminal [`QueryError::Unavailable`] abandons the remaining probe
/// plan (recording how much was abandoned) and returns whatever was
/// already found, with [`Completeness::Partial`] or
/// [`Completeness::Empty`] telling the caller how much the answer can be
/// trusted.
pub fn answer_imprecise_query(
    db: &dyn WebDatabase,
    query: &ImpreciseQuery,
    model: &SimilarityModel,
    strategy: &mut dyn RelaxationStrategy,
    config: &EngineConfig,
) -> AnswerSet {
    let stats_before = db.stats();
    let sources_before = db.source_health();
    let mut degradation = DegradationReport::default();
    let mut memo = ProbeMemo::new(config.dedup_probes);

    // Step 1: base query and base set. Derivation pages are recorded in
    // the memo, so a later relaxation probe that reproduces one of them
    // is replayed instead of re-issued.
    let (base_query, base_set) = derive_base_set_memoized(
        db,
        query,
        model,
        strategy,
        config.max_relax_level,
        &mut degradation,
        &mut memo,
    );

    // Extended set, deduplicated across overlapping relaxation queries.
    // Base-set tuples are answers (and relevant) by construction;
    // `examined` additionally remembers rejected candidates so a tuple
    // retrieved by several relaxation queries is looked at once. The set
    // is insert-only and only its `len()` is read — its randomized
    // iteration order is never observed, so it cannot leak into results.
    #[expect(
        clippy::disallowed_types,
        reason = "insert-only membership set, never iterated"
    )]
    let mut examined: HashSet<Tuple> = HashSet::new();
    let mut extended: Vec<(Tuple, Provenance)> = Vec::new();
    for t in &base_set {
        if examined.insert(t.clone()) {
            extended.push((t.clone(), Provenance::BaseSet));
        }
    }

    // Base-set tuples are relevant by construction; the early-stop target
    // counts only what relaxation finds *beyond* them.
    let base_count = extended.len();

    // Steps 2-8: relax each base tuple, filter by Sim(t, t') > Tsim. The
    // planner dedups canonically identical probes against the per-call
    // memo (identical relaxed queries are issued once, their page fanned
    // back out to every interested base tuple at its original plan
    // position). A failed probe is recorded and skipped; a terminal
    // failure abandons the remaining plan (accounted below).
    let expanded_tuples = base_set.iter().take(config.max_base_tuples);
    let mut abandoned_at: Option<usize> = None;
    // One probe loop: pending probes reach the source in windows through
    // `try_query_plan`, so a source that overrides it (the probe cache)
    // sees a window whole. A window spans the tuple's whole pending plan,
    // except under the early-stop target, which can end a plan mid-tuple:
    // there each window is one probe, so nothing is issued past the
    // stopping point.
    let window = if config.target_relevant.is_some() {
        1
    } else {
        usize::MAX
    };
    'outer: for (base_index, t) in expanded_tuples.enumerate() {
        if degradation.source_lost {
            abandoned_at = Some(base_index);
            break;
        }
        let bound = t.bound_attrs();
        let tuple_query = tuple_query_for(model, t, &bound);
        let mut plan = strategy.plan(&bound, config.max_relax_level);
        plan.truncate(config.max_steps_per_tuple);
        // Each probe stores the canonical form of its relaxed query: the
        // memo keys on it AND the probe itself is issued in canonical
        // form, so a downstream `CachedWebDb` derives its cache key by
        // borrowing instead of re-sorting (see
        // `SelectionQuery::is_canonical`). Canonicalization is
        // semantics-preserving, so the source sees an equivalent query.
        let probes = crate::relax::compile_probes(&tuple_query, &plan);

        // Results of the current window, in issue order. A window is a
        // contiguous run of the steps consumed next (see
        // `next_window`), so its front always belongs to the step at hand.
        let mut fetched: VecDeque<Result<QueryPage, QueryError>> = VecDeque::new();
        for (step_index, probe) in probes.iter().enumerate() {
            let step = &probe.step;
            let key = &probe.query;
            if key.predicates().is_empty() {
                continue;
            }
            let page = if let Some(page) = memo.replay(key) {
                degradation.probes_deduped = degradation.probes_deduped.saturating_add(1);
                page
            } else {
                degradation.note_attempt();
                if fetched.is_empty() {
                    let rest = probes.get(step_index..).unwrap_or_default();
                    let pending = next_window(rest, window, &memo);
                    fetched = db.try_query_plan(&pending).into();
                }
                // A conforming source answers at least the window's first
                // query; one that answered nothing has failed this probe.
                let outcome = fetched.pop_front().unwrap_or(Err(QueryError::Unavailable));
                match outcome {
                    Ok(page) => {
                        if page.truncated {
                            degradation.note_truncated();
                        }
                        memo.record(key.clone(), &page);
                        page
                    }
                    Err(error) => {
                        degradation.note_failure(error);
                        if degradation.source_lost {
                            // Account the rest of this tuple's plan, then
                            // fall to the outer abandonment bookkeeping.
                            #[expect(
                                clippy::arithmetic_side_effects,
                                reason = "step_index < plan.len(), so step_index + 1 cannot wrap"
                            )]
                            #[expect(
                                clippy::indexing_slicing,
                                reason = "step_index < plan.len(): probes and plan are 1:1 by compile_probes"
                            )]
                            let remaining = &plan[step_index + 1..];
                            degradation.note_skipped(remaining);
                            abandoned_at = Some(base_index.saturating_add(1));
                            break 'outer;
                        }
                        continue;
                    }
                }
            };
            for candidate in page.tuples {
                if !examined.insert(candidate.clone()) {
                    continue;
                }
                let sim = model.tuple_similarity(t, &candidate, &bound);
                if sim > config.t_sim {
                    extended.push((
                        candidate,
                        Provenance::Relaxed {
                            base_index,
                            relaxed_attrs: step.attrs.clone(),
                        },
                    ));
                    if config
                        .target_relevant
                        .is_some_and(|target| extended.len().saturating_sub(base_count) >= target)
                    {
                        break 'outer;
                    }
                }
            }
        }
    }

    // Terminal abandonment: account the base tuples never expanded, so
    // the report says how much of the plan was dropped.
    if let Some(from) = abandoned_at {
        for t in base_set.iter().take(config.max_base_tuples).skip(from) {
            let bound = t.bound_attrs();
            let mut plan = strategy.plan(&bound, config.max_relax_level);
            plan.truncate(config.max_steps_per_tuple);
            degradation.note_skipped(&plan);
        }
    }

    // Step 9: rank the extended set by similarity to the query; top-k.
    let relevant_found = extended.len();
    let mut answers: Vec<RankedAnswer> = extended
        .into_iter()
        .map(|(tuple, provenance)| {
            let similarity = model.query_similarity(query, &tuple);
            RankedAnswer {
                tuple,
                similarity,
                provenance,
            }
        })
        .collect();
    answers.sort_by(|a, b| {
        b.similarity
            .total_cmp(&a.similarity)
            .then_with(|| a.tuple.values().cmp(b.tuple.values()))
    });
    answers.truncate(config.top_k);

    let stats_after = db.stats();
    let delta = stats_after.since(&stats_before);
    degradation.retries = delta.retries;
    degradation.breaker_trips = delta.breaker_trips;
    // Per-source breakdown: scope each member's counters to this call by
    // differencing the federation's health table around it. Members are
    // matched positionally — the federation's member order is stable.
    if let (Some(before), Some(after)) = (sources_before, db.source_health()) {
        degradation.sources = after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| a.since(b))
            .collect();
    }
    let faulted = degradation.probes_failed > 0
        || degradation.probes_skipped > 0
        || degradation.truncated_pages > 0
        || degradation.source_lost;
    degradation.completeness = match (faulted, answers.is_empty()) {
        (false, _) => Completeness::Full,
        (true, false) => Completeness::Partial,
        (true, true) => Completeness::Empty,
    };

    AnswerSet {
        answers,
        stats: WorkStats {
            queries_issued: delta.queries_issued,
            tuples_extracted: delta.tuples_returned,
            tuples_examined: examined.len(),
            relevant_found,
        },
        base_query,
        base_set_size: base_set.len(),
        degradation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_per_relevant_handles_zero() {
        let s = WorkStats::default();
        assert_eq!(s.work_per_relevant(), None);
        let s = WorkStats {
            queries_issued: 3,
            tuples_extracted: 55,
            tuples_examined: 40,
            relevant_found: 10,
        };
        assert_eq!(s.work_per_relevant(), Some(4.0));
    }

    #[test]
    fn default_config_is_sane() {
        let c = EngineConfig::default();
        assert!(c.t_sim > 0.0 && c.t_sim < 1.0);
        assert!(c.top_k >= 1);
        assert!(c.max_relax_level >= 1);
    }

    #[test]
    fn default_report_is_full_and_clean() {
        let r = DegradationReport::default();
        assert_eq!(r.completeness, Completeness::Full);
        assert!(!r.is_degraded());
        assert!(r.to_string().starts_with("completeness=full"));
    }

    #[test]
    fn report_display_is_one_line() {
        let r = DegradationReport {
            probes_attempted: 12,
            probes_deduped: 7,
            probes_failed: 2,
            probes_skipped: 3,
            levels_abandoned: 1,
            truncated_pages: 4,
            retries: 5,
            breaker_trips: 1,
            source_lost: true,
            sources: vec![
                SourceHealth {
                    name: "s0".into(),
                    probes_attempted: 6,
                    probes_failed: 0,
                    tuples_contributed: 40,
                    hedges_fired: 0,
                    hedges_won: 0,
                    breaker_open: false,
                },
                SourceHealth {
                    name: "s1".into(),
                    probes_attempted: 6,
                    probes_failed: 2,
                    tuples_contributed: 0,
                    hedges_fired: 2,
                    hedges_won: 1,
                    breaker_open: true,
                },
            ],
            completeness: Completeness::Partial,
        };
        let line = r.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("completeness=partial"));
        assert!(line.contains("deduped=7"));
        assert!(line.contains("source-lost"));
        assert!(line.contains("[s1: probes=6 failed=2 contributed=0 hedges=1/2 breaker-open]"));
        assert!(r.is_degraded());
    }

    #[test]
    fn distinct_levels_follows_strategy_levels_not_sizes() {
        let steps = vec![
            RelaxationStep::of(vec![AttrId(0)]),
            RelaxationStep::of(vec![AttrId(1)]),
            RelaxationStep::of(vec![AttrId(0), AttrId(1)]),
        ];
        assert_eq!(distinct_levels(&steps), 2);
        // Two same-size steps at different strategy-assigned levels are
        // two levels (the old size-based accounting said one).
        let escalated = vec![
            RelaxationStep {
                attrs: vec![AttrId(0)],
                level: 1,
            },
            RelaxationStep {
                attrs: vec![AttrId(1)],
                level: 2,
            },
        ];
        assert_eq!(distinct_levels(&escalated), 2);
        assert_eq!(distinct_levels(&[]), 0);
    }

    #[test]
    fn probe_memo_replays_only_when_enabled() {
        let q = SelectionQuery::all();
        let page = QueryPage::complete(Vec::new());
        let mut off = ProbeMemo::disabled();
        off.record(q.clone(), &page);
        assert!(off.replay(&q).is_none());
        let mut on = ProbeMemo::new(true);
        assert!(on.replay(&q).is_none());
        on.record(q.clone(), &page);
        assert_eq!(on.replay(&q), Some(page));
    }
}

#[cfg(test)]
mod behavior_tests {
    use super::*;
    use crate::relax::RelaxationStrategy;
    use crate::GuidedRelax;
    use aimq_afd::{AttributeOrdering, BucketConfig};
    use aimq_catalog::{Leaf, Schema, Value};
    use aimq_sim::SimConfig;
    use aimq_storage::{AccessStats, InMemoryWebDb, Relation};

    fn schema() -> Schema {
        Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .categorical("C")
            .build()
            .unwrap()
    }

    /// A relation whose base set contains byte-identical tuples — the
    /// redundancy case the planner dedups: identical tuples generate
    /// identical relaxation-query sequences.
    fn world() -> (InMemoryWebDb, SimilarityModel, ImpreciseQuery) {
        let s = schema();
        let rows = [
            ("x", "y", "z"),
            ("x", "y", "z"),
            ("x", "q", "z"),
            ("p", "y", "z"),
            ("x", "y", "r"),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(a, b, c)| {
                Tuple::new(&s, vec![Value::cat(a), Value::cat(b), Value::cat(c)]).unwrap()
            })
            .collect();
        let relation = Relation::from_tuples(s.clone(), &tuples).unwrap();
        let ordering = AttributeOrdering::uniform(&s).unwrap();
        let model = SimilarityModel::build(
            &relation,
            &ordering,
            &SimConfig {
                bucket: BucketConfig::for_schema(&s),
            },
        );
        let q = ImpreciseQuery::builder(&s)
            .like("A", Value::cat("x"))
            .unwrap()
            .like("B", Value::cat("y"))
            .unwrap()
            .like("C", Value::cat("z"))
            .unwrap()
            .build()
            .unwrap();
        (InMemoryWebDb::new(relation), model, q)
    }

    fn strategy(model: &SimilarityModel) -> GuidedRelax {
        GuidedRelax::new(model.ordering().clone())
    }

    fn answer_fingerprint(result: &AnswerSet) -> String {
        let answers: Vec<String> = result
            .answers
            .iter()
            .map(|a| {
                format!(
                    "{:?}@{:016x}/{:?}",
                    a.tuple,
                    a.similarity.to_bits(),
                    a.provenance
                )
            })
            .collect();
        answers.join(";")
    }

    /// Tentpole: identical probe sequences from identical base tuples are
    /// issued once, the saving is metered, and the answers (tuples,
    /// similarities, provenance) are byte-identical to the
    /// non-deduplicating engine.
    #[test]
    fn planner_dedup_preserves_answers_and_cuts_queries() {
        let config = EngineConfig {
            t_sim: 0.05,
            top_k: 10,
            ..EngineConfig::default()
        };
        let (db, model, q) = world();
        let mut s = strategy(&model);
        let deduped = answer_imprecise_query(&db, &q, &model, &mut s, &config);
        let deduped_issued = db.stats().queries_issued;

        let (db, model, q) = world();
        let mut s = strategy(&model);
        let baseline_config = EngineConfig {
            dedup_probes: false,
            ..config
        };
        let baseline = answer_imprecise_query(&db, &q, &model, &mut s, &baseline_config);
        let baseline_issued = db.stats().queries_issued;

        assert_eq!(deduped.base_set_size, 2, "two identical base tuples");
        assert!(
            deduped.degradation.probes_deduped > 0,
            "identical plans must dedup"
        );
        assert_eq!(baseline.degradation.probes_deduped, 0);
        assert!(
            deduped_issued < baseline_issued,
            "dedup must reduce source traffic ({deduped_issued} vs {baseline_issued})"
        );
        // Every planned probe is accounted exactly once: issued or deduped.
        assert_eq!(
            deduped.degradation.probes_attempted + deduped.degradation.probes_deduped,
            baseline.degradation.probes_attempted,
        );
        assert_eq!(answer_fingerprint(&deduped), answer_fingerprint(&baseline));
        assert_eq!(
            deduped.stats.tuples_examined,
            baseline.stats.tuples_examined
        );
        assert_eq!(deduped.stats.relevant_found, baseline.stats.relevant_found);
    }

    /// Satellite regression: `target_relevant` counts relevant tuples
    /// *beyond* the base set. With `target <= |base set|` the engine must
    /// still relax until that many relaxed answers are found, not stop at
    /// the first one.
    #[test]
    fn target_relevant_counts_beyond_the_base_set() {
        let (db, model, q) = world();
        let mut s = strategy(&model);
        let config = EngineConfig {
            t_sim: 0.05,
            top_k: 10,
            target_relevant: Some(2), // == |base set|: the old bug's blind spot
            ..EngineConfig::default()
        };
        let result = answer_imprecise_query(&db, &q, &model, &mut s, &config);
        assert_eq!(result.base_set_size, 2);
        let relaxed_answers = result
            .answers
            .iter()
            .filter(|a| matches!(a.provenance, Provenance::Relaxed { .. }))
            .count();
        assert_eq!(
            relaxed_answers, 2,
            "the early stop fires at exactly `target` relaxed answers"
        );
        // The two identical base tuples collapse to one distinct relevant
        // entry; the old `extended.len() >= target` check would have
        // stopped after a single relaxed answer here.
        assert_eq!(result.stats.relevant_found, 1 + 2);
    }

    /// Handing a tuple's whole pending plan to the source in one
    /// `try_query_plan` window is a pure executor swap — answers,
    /// degradation counters and source-visible traffic are byte-identical
    /// to one-probe windows, for both dedup settings, on a clean source
    /// and through a seeded fault-injecting decorator (whose `Sequenced`
    /// schedule keys fate on query *position*, so any reordering would
    /// diverge). The one-probe reference is an early-stop target that
    /// can never be reached.
    #[test]
    fn batched_plans_match_sequential_engine() {
        use aimq_storage::{FaultInjectingWebDb, FaultProfile};

        let run = |one_probe_windows: bool, dedup: bool, faults: bool| {
            let (db, model, q) = world();
            let mut s = strategy(&model);
            let config = EngineConfig {
                t_sim: 0.05,
                top_k: 10,
                dedup_probes: dedup,
                target_relevant: one_probe_windows.then_some(usize::MAX),
                ..EngineConfig::default()
            };
            let result = if faults {
                let db = FaultInjectingWebDb::new(db.clone(), FaultProfile::flaky(), 7);
                answer_imprecise_query(&db, &q, &model, &mut s, &config)
            } else {
                answer_imprecise_query(&db, &q, &model, &mut s, &config)
            };
            (answer_fingerprint(&result), result.degradation, db.stats())
        };

        for dedup in [true, false] {
            for faults in [false, true] {
                let (fp_seq, deg_seq, stats_seq) = run(true, dedup, faults);
                let (fp_bat, deg_bat, stats_bat) = run(false, dedup, faults);
                assert_eq!(fp_bat, fp_seq, "answers (dedup={dedup} faults={faults})");
                assert_eq!(
                    deg_bat, deg_seq,
                    "degradation (dedup={dedup} faults={faults})"
                );
                assert_eq!(
                    stats_bat, stats_seq,
                    "source meter (dedup={dedup} faults={faults})"
                );
            }
        }
    }

    /// Under an early-stop target every window is one probe, so the
    /// source sees exactly the probes the engine attempted: none is
    /// prefetched past the stopping point.
    #[test]
    fn early_stop_prefetches_nothing_past_the_target() {
        let config = EngineConfig {
            t_sim: 0.05,
            top_k: 10,
            target_relevant: Some(1),
            ..EngineConfig::default()
        };
        let (db, model, q) = world();
        let stopped = answer_imprecise_query(&db, &q, &model, &mut strategy(&model), &config);
        assert_eq!(
            stopped.stats.queries_issued,
            stopped.degradation.probes_attempted
        );

        let (db, model, q) = world();
        let unbounded = EngineConfig {
            target_relevant: None,
            ..config
        };
        let full = answer_imprecise_query(&db, &q, &model, &mut strategy(&model), &unbounded);
        assert!(
            full.degradation.probes_attempted > stopped.degradation.probes_attempted,
            "the target must stop the plan early"
        );
    }

    /// A source that dies for good after a fixed number of successes.
    struct DyingDb {
        inner: InMemoryWebDb,
        successes_left: Leaf<u32>,
    }

    impl WebDatabase for DyingDb {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
            let alive = self.successes_left.with((), |left, ()| {
                let alive = *left > 0;
                *left = left.saturating_sub(1);
                alive
            });
            if !alive {
                return Err(QueryError::Unavailable);
            }
            self.inner.try_query(query)
        }
        fn stats(&self) -> AccessStats {
            self.inner.stats()
        }
        fn reset_stats(&self) {
            self.inner.reset_stats()
        }
    }

    /// Satellite regression: `levels_abandoned` follows the strategy's
    /// level structure. An escalation strategy emits same-*size* steps at
    /// different levels; abandoning two of them must count two levels
    /// (the old size-based accounting counted one).
    #[test]
    fn abandonment_counts_strategy_levels_not_step_sizes() {
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

        let s = schema();
        let t = Tuple::new(&s, vec![Value::cat("x"), Value::cat("y"), Value::cat("z")]).unwrap();
        let relation = Relation::from_tuples(s.clone(), &[t]).unwrap();
        let ordering = AttributeOrdering::uniform(&s).unwrap();
        let model = SimilarityModel::build(
            &relation,
            &ordering,
            &SimConfig {
                bucket: BucketConfig::for_schema(&s),
            },
        );
        let q = ImpreciseQuery::builder(&s)
            .like("A", Value::cat("x"))
            .unwrap()
            .like("B", Value::cat("y"))
            .unwrap()
            .like("C", Value::cat("z"))
            .unwrap()
            .build()
            .unwrap();
        // One success (the base query), then the source is gone: the
        // first relaxation probe fails terminally, abandoning the two
        // remaining steps of the 3-step escalation plan.
        let db = DyingDb {
            inner: InMemoryWebDb::new(relation),
            successes_left: Leaf::new(1),
        };
        let mut strategy = Escalating;
        let result = answer_imprecise_query(
            &db,
            &q,
            &model,
            &mut strategy,
            &EngineConfig {
                t_sim: 0.05,
                ..EngineConfig::default()
            },
        );
        let d = &result.degradation;
        assert!(d.source_lost);
        assert_eq!(d.probes_skipped, 2, "two planned steps never issued");
        assert_eq!(
            d.levels_abandoned, 2,
            "same-size steps at levels 2 and 3 are two abandoned levels"
        );
        assert_eq!(result.base_set_size, 1);
        assert_eq!(d.completeness, Completeness::Partial);
    }
}
