#![warn(missing_docs)]

//! # aimq-storage
//!
//! The storage substrate of the AIMQ reproduction: an in-memory,
//! dictionary-encoded column store plus the *autonomous Web database*
//! facade the paper assumes.
//!
//! The paper's setting (Section 3.1) imposes two constraints that shape
//! this crate:
//!
//! 1. the relation `R` supports only the **boolean query processing
//!    model** — a tuple either satisfies a conjunctive selection or it does
//!    not; no ranking, no similarity operators; and
//! 2. the database is **autonomous**: AIMQ may not alter its data model and
//!    can only learn statistics by *probing* it with ordinary queries.
//!
//! Accordingly, the full-featured [`Relation`] (random access, dictionary
//! codes, samples) is available only to the code that *owns* data — the
//! dataset generators and the mining pipeline working on a probed sample —
//! while the query engine in the `aimq` crate talks to the source through
//! the deliberately narrow [`WebDatabase`] trait, whose implementations
//! meter every query and every tuple returned (the `Work` measure of
//! Section 6.3 is exactly this meter).
//!
//! Categorical values are dictionary-encoded (`u32` codes) at load time;
//! TANE partitions, supertuple bags and ROCK neighbor sets all operate on
//! codes rather than strings.
//!
//! Because real autonomous sources fail constantly, the boundary is
//! *fallible*: [`WebDatabase::try_query`] returns a [`QueryPage`] (tuples
//! plus a truncation flag) or a typed [`QueryError`]. Two decorators
//! compose on top of any source: [`FaultInjectingWebDb`] replays a seeded,
//! deterministic fault schedule (the evaluation's `none`/`flaky`/`hostile`
//! profiles), and [`ResilientWebDb`] implements bounded retry with
//! exponential backoff + jitter over a [`VirtualClock`], a
//! consecutive-failure circuit breaker, and a per-session probe budget.
//! A third decorator, [`CachedWebDb`], memoizes successful complete pages
//! keyed on the canonicalized query, so repeated probes never touch the
//! source (and never charge the probe budget — stack it outermost). See
//! DESIGN.md, "Fault model & degradation semantics" and "Probe caching &
//! dedup semantics".

mod cache;
mod column;
mod csv;
mod dictionary;
mod executor;
mod facet;
mod fault;
mod federated;
mod postings;
mod relation;
mod resilient;
mod sampler;
mod web;

pub use cache::{CachedWebDb, DEFAULT_CACHE_CAPACITY, DEFAULT_CACHE_STRIPES};
pub use column::{Column, NULL_CODE};
pub use csv::{read_csv, write_csv, CsvError};
pub use dictionary::Dictionary;
pub use executor::{execute, execute_rows};
pub use facet::FacetTree;
pub use fault::{FaultInjectingWebDb, FaultProfile, RateLimitWindow, TruncationPolicy};
pub use federated::{
    FederatedSource, FederatedWebDb, FederationPolicy, SchemaMapping, SourceHealth, SourceSpec,
};
pub use postings::{execute_query, intersect_gallop, union_kway, ExecStats, PlanExecutor};
pub use relation::{Relation, RelationBuilder, RowId};
pub use resilient::{ResilienceReport, ResilientWebDb, RetryPolicy, VirtualClock};
pub use sampler::{probe_by_spanning_queries, random_sample, ProbeError};
pub use web::{AccessStats, InMemoryWebDb, QueryError, QueryPage, StatsCell, WebDatabase};
