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

//! # aimq-sim
//!
//! The **Similarity Miner** of AIMQ (Section 5 of the paper): a domain-
//! and user-independent estimator of similarity between values of
//! categorical attributes, plus the combined query–tuple similarity
//! function used to rank answers.
//!
//! The pipeline:
//!
//! 1. every distinct *attribute–value pair* (AV-pair, e.g. `Make=Ford`)
//!    is represented by its **supertuple** — for every *other* attribute,
//!    a bag of the feature values co-occurring with the AV-pair in the
//!    relation (Table 1 of the paper shows `Make=Ford`'s supertuple);
//! 2. the similarity of two values of the same attribute is the
//!    importance-weighted sum of the bag-semantics **Jaccard
//!    coefficients** of their supertuples' per-attribute bags:
//!    `VSim(C1,C2) = Σ Wimp(Ai) × SimJ(C1.Ai, C2.Ai)`;
//! 3. query–tuple similarity combines `VSim` on categorical attributes
//!    with the normalized numeric distance `1 − |Q.Ai − t.Ai| / Q.Ai`
//!    (clamped into `[0,1]`), again weighted by `Wimp`:
//!    `Sim(Q,t) = Σ Wimp(Ai) × [VSim | numeric-sim]`.
//!
//! Numeric features inside supertuple bags are bucketized exactly as in
//! AFD mining (the paper's Table 1 shows `Price 1k-5k:5`-style entries);
//! the same [`BucketConfig`](aimq_afd::BucketConfig) drives both.

mod bag;
mod model;
mod supertuple;
mod tuple_sim;

pub use bag::Bag;
pub use model::{SimConfig, SimilarityModel, ValueSimMatrix};
pub use supertuple::{build_supertuples, SuperTuple};
pub use tuple_sim::numeric_similarity;
