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

//! # aimq-relation
//!
//! The in-memory, dictionary-encoded column store of the AIMQ
//! reproduction: the *owned data* that the dataset generators build and
//! that the miners learn from.
//!
//! AIMQ learns approximate functional dependencies, the attribute
//! relaxation order and value similarities offline, from a sample probed
//! out of the autonomous source (paper, Sections 3–5), never from the
//! live source itself. This crate is where that sample lives, and it
//! has no dependency on the source boundary: the `WebDatabase` trait and
//! its decorators are in `aimq-storage`, above this crate. The mining
//! crates (`aimq-afd`, `aimq-sim`, `aimq-rock`) and the generators
//! (`aimq-data`) depend on this crate and `aimq-catalog` only, so Cargo
//! rejects any path from them to a probe (`use aimq_storage::…` fails to
//! resolve, E0432).
//!
//! Categorical values are dictionary-encoded (`u32` codes) at load time;
//! TANE partitions, supertuple bags and ROCK neighbor sets all operate on
//! codes rather than strings. Categorical attributes keep an inverted
//! index of ascending row ids per code, and numeric attributes a
//! value-sorted index, so the selection executor in `aimq-storage` can
//! size each predicate's row set before it copies any of it.

mod column;
mod csv;
mod dictionary;
mod relation;

pub use column::{Column, NULL_CODE};
pub use csv::{read_csv, write_csv, CsvError};
pub use dictionary::Dictionary;
pub use relation::{Relation, RelationBuilder, RowId};
