//! `aimq-http`: a network front door over [`aimq_serve`].
//!
//! Everything below the socket is unchanged: the HTTP layer frames
//! bytes into requests, translates them to [`aimq_serve::QueryServer`]
//! submissions, and serializes the typed outcomes back out. It owns
//! **no** serving logic — admission, deadlines, degradation, and
//! shutdown-drain semantics all live in `aimq-serve`, which is what
//! lets the end-to-end tests demand byte-identical results between the
//! in-process path and the wire path.
//!
//! The crate splits along that boundary:
//!
//! - [`wire`](crate::Decoder): HTTP/1.1 framing — an incremental
//!   request [`Decoder`] (keep-alive, pipelining, `Content-Length`
//!   bodies, typed [`FrameError`]s) and the [`Response`] writer.
//! - [`routes`](crate::dispatch): the pure request → response function
//!   and the MeiliDB-shaped route table.
//! - [`server`](crate::AimqHttpServer): the listener, the
//!   thread-per-connection keep-alive loop, and the three-phase
//!   graceful shutdown (stop accepting → drain connections → shut the
//!   pool).
//! - [`client`]: a minimal blocking client for tests and the CLI.
//!
//! The crate root denies what the other library crates deny: the
//! panic-freedom lints (`indexing_slicing` included), the `clippy.toml`
//! type and method bans (hash containers, raw atomics and locks, the
//! wall clock, `partial_cmp`) and `arithmetic_side_effects`. Nothing
//! here reads the wall clock today; a future read takes a
//! statement-level `#[expect(clippy::disallowed_methods, reason = ...)]`
//! at the clock source.

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

mod routes;
mod server;
mod wire;

pub mod client;

pub use routes::{dispatch, AppState, HttpStats};
pub use server::{AimqHttpServer, HttpConfig};
pub use wire::{Decoder, FrameError, Request, Response, MAX_BODY_BYTES, MAX_HEADER_BYTES};
