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
#![allow(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants,
    reason = "the wildcard lints guard matches over the fault enums, which live downstream and cannot be named here"
)]

//! # aimq-catalog
//!
//! The data model shared by every crate in the AIMQ reproduction of
//! *Answering Imprecise Queries over Autonomous Web Databases*
//! (Nambiar & Kambhampati, ICDE 2006).
//!
//! The paper works with flat relations projected by autonomous Web
//! databases: every attribute is either *categorical* (an opaque string
//! drawn from a finite domain, e.g. `Make`, `Model`, `Color`) or *numeric*
//! (a continuous value, e.g. `Price`, `Mileage`). Queries come in two
//! flavours:
//!
//! * [`SelectionQuery`] — a *precise* conjunctive selection that a Web
//!   database with a boolean query-processing model can evaluate directly
//!   (`Model = Camry AND Price <= 10000`);
//! * [`ImpreciseQuery`] — the user-facing *imprecise* query of the paper
//!   (`Model like Camry, Price like 10000`), which must be answered with a
//!   ranked set of tuples whose similarity to the query exceeds a
//!   threshold.
//!
//! This crate deliberately contains no algorithms and no data: the
//! dictionary-encoded column store lives in `aimq-relation`, the
//! autonomous-source boundary in `aimq-storage`, and mining, similarity
//! estimation and query answering in the `aimq-afd`, `aimq-sim` and
//! `aimq` crates. Keeping the model tiny lets every subsystem — including
//! the ROCK baseline — speak the same types. It depends on no other aimq
//! crate, so it is probe-free by construction (`tests/crate_dag.rs`).

mod atomic;
mod bucket;
mod error;
mod json;
mod leaf;
mod query;
mod schema;
mod score;
mod tuple;
mod value;

pub use atomic::{Counter, Flag};
pub use bucket::BucketSpec;
pub use error::CatalogError;
pub use json::{Json, JsonError};
pub use leaf::{Leaf, Plain};
pub use query::{ImpreciseQuery, Predicate, PredicateOp, SelectionQuery};
pub use schema::{AttrId, Attribute, Domain, Schema, SchemaBuilder};
pub use score::OrderedScore;
pub use tuple::Tuple;
pub use value::Value;

/// Convenience result alias used across the catalog crate.
pub type Result<T> = std::result::Result<T, CatalogError>;
