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
//! This crate deliberately sits *outside* the workspace's wall-clock
//! lint scope (L4): sockets, wall clocks, and sleeps are its whole
//! job. The panic-freedom lints and the type ban (hash containers, raw
//! atomics) and `arithmetic_side_effects` are denied below, and the
//! xtask lock and effect rules (L5, L8) apply in full.

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::disallowed_types)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

mod routes;
mod server;
mod wire;

pub mod client;

pub use routes::{dispatch, AppState, HttpStats};
pub use server::{AimqHttpServer, HttpConfig};
pub use wire::{Decoder, FrameError, Request, Response, MAX_BODY_BYTES, MAX_HEADER_BYTES};
