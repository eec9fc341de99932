#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

//! # aimq
//!
//! The **AIMQ** imprecise-query answering engine — the primary
//! contribution of *Answering Imprecise Queries over Autonomous Web
//! Databases* (Nambiar & Kambhampati, ICDE 2006).
//!
//! Given an imprecise query `Q` (e.g. `CarDB(Model like Camry, Price like
//! 10000)`) over a database that only answers boolean selections, AIMQ
//! (Algorithm 1 of the paper):
//!
//! 1. **maps** `Q` to a precise *base query* `Qpr` by tightening every
//!    `like` to `=`, generalizing along the mined attribute order until
//!    the answer set is non-empty (footnote 2);
//! 2. treats every tuple of the base set as a **fully bound selection
//!    query** and issues *relaxations* of it — dropping the least
//!    important attributes first, per the AFD-derived ordering
//!    ([`GuidedRelax`]) or at random ([`RandomRelax`], the paper's
//!    strawman);
//! 3. keeps every retrieved tuple whose similarity to its base tuple
//!    exceeds `Tsim`, then ranks the extended set by similarity to `Q`
//!    and returns the top-k.
//!
//! The four subsystems of the paper's Figure 1 map to crates:
//! Data Collector → `aimq-storage`'s prober, Dependency Miner →
//! `aimq-afd`, Similarity Miner → `aimq-sim`, Query Engine → this crate.
//! [`AimqSystem`] wires them together end to end (probe → mine → order →
//! estimate → answer).
//!
//! The engine is hardened for *fallible* autonomous sources: every
//! [`AnswerSet`] carries a [`DegradationReport`] saying which probes
//! failed or were abandoned and whether the answer is
//! [`Completeness::Full`], `Partial`, or `Empty`. See DESIGN.md, "Fault
//! model & degradation semantics".

mod base_query;
mod bind;
mod engine;
mod feedback;
mod persist;
mod relax;
mod system;

pub use base_query::derive_base_set;
pub use bind::{precise_query_for, tuple_query_for};
pub use engine::{
    AnswerSet, Completeness, DegradationReport, EngineConfig, Provenance, RankedAnswer, WorkStats,
};
pub use feedback::FeedbackTuner;
pub use persist::PersistError;
pub use relax::{
    compile_probes, GuidedRelax, PlannedProbe, RandomRelax, RelaxationStep, RelaxationStrategy,
};
pub use system::{AimqError, AimqSystem, TrainConfig};
