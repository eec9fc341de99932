#![warn(missing_docs)]

//! # aimq-suite
//!
//! Facade crate for the AIMQ reproduction — *Answering Imprecise Queries
//! over Autonomous Web Databases* (Nambiar & Kambhampati, ICDE 2006).
//!
//! Re-exports the whole public API so examples, integration tests and
//! downstream users need a single dependency:
//!
//! * [`catalog`] — values, schemas, tuples, precise & imprecise queries;
//! * [`storage`] — columnar relations, the boolean Web-database facade,
//!   sampling;
//! * [`afd`] — TANE mining of approximate functional dependencies/keys
//!   and the Algorithm-2 attribute ordering;
//! * [`sim`] — supertuples, bag-semantics Jaccard, the `VSim`/`Sim`
//!   similarity model;
//! * [`rock`] — the ROCK clustering baseline;
//! * [`engine`] — Algorithm 1: guided/random relaxation and top-k
//!   ranking ([`engine::AimqSystem`] is the main entry point);
//! * [`serve`] — concurrent query-serving runtime: worker pool,
//!   bounded admission queue, per-query deadlines over virtual time;
//! * [`http`] — the network front door: an HTTP/1.1 server over
//!   [`serve`], plus a minimal client;
//! * [`data`] — seeded synthetic CarDB / CensusDB generators;
//! * [`eval`] — runners reproducing every table and figure of the
//!   paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use aimq_suite::engine::{AimqSystem, EngineConfig, TrainConfig};
//! use aimq_suite::catalog::{ImpreciseQuery, Value};
//! use aimq_suite::data::CarDb;
//! use aimq_suite::storage::{InMemoryWebDb, WebDatabase};
//!
//! // An autonomous used-car database (boolean queries only).
//! let db = InMemoryWebDb::new(CarDb::generate(2_000, 42));
//!
//! // Offline: probe a sample, mine AFDs + value similarities.
//! let sample = db.relation().random_sample(500, 1);
//! let system = AimqSystem::train(&sample, &TrainConfig::default()).unwrap();
//!
//! // Online: answer an imprecise query with ranked, similar tuples.
//! let query = ImpreciseQuery::builder(db.schema())
//!     .like("Model", Value::cat("Camry")).unwrap()
//!     .like("Price", Value::num(9_000.0)).unwrap()
//!     .build().unwrap();
//! let answers = system.answer(&db, &query, &EngineConfig::default());
//! assert!(!answers.answers.is_empty());
//! ```

/// Data model: values, schemas, tuples and query ASTs.
pub mod catalog {
    pub use aimq_catalog::*;
}

/// Column store, boolean executor, Web-database facade and sampling.
pub mod storage {
    pub use aimq_storage::*;
}

/// TANE dependency mining and the Algorithm-2 attribute ordering.
pub mod afd {
    pub use aimq_afd::*;
}

/// The Similarity Miner: supertuples, Jaccard bags, `VSim` and `Sim`.
pub mod sim {
    pub use aimq_sim::*;
}

/// The ROCK clustering baseline (Guha, Rastogi & Shim, ICDE 1999).
pub mod rock {
    pub use aimq_rock::*;
}

/// The AIMQ query engine (Algorithm 1) and end-to-end system.
pub mod engine {
    pub use aimq::*;
}

/// Concurrent query-serving runtime: worker pool, admission control,
/// per-query deadlines over virtual time, serving stats.
pub mod serve {
    pub use aimq_serve::*;
}

/// HTTP/1.1 front door over [`serve`]: MeiliDB-shaped routes, typed
/// error mapping, graceful drain and a minimal client.
pub mod http {
    pub use aimq_http::*;
}

/// Synthetic CarDB / CensusDB generators and the latent oracle.
pub mod data {
    pub use aimq_data::*;
}

/// Experiment runners for every table and figure of the paper.
pub mod eval {
    pub use aimq_eval::*;
}
