#![warn(missing_docs)]

//! # aimq-eval
//!
//! The experiment harness reproducing **every table and figure** of the
//! AIMQ paper's evaluation (Section 6):
//!
//! | Experiment | Paper | Runner |
//! |---|---|---|
//! | Offline computation time | Table 2 | [`experiments::table2`] |
//! | Robustness of attribute ordering | Figure 3 | [`experiments::fig3`] |
//! | Robustness of key mining | Figure 4 | [`experiments::fig4`] |
//! | Robust similarity estimation | Table 3 | [`experiments::table3`] |
//! | Similarity graph for `Make` | Figure 5 | [`experiments::fig5`] |
//! | GuidedRelax / RandomRelax efficiency | Figures 6 & 7 | [`experiments::fig67`] |
//! | Simulated user study (MRR) | Figure 8 | [`experiments::fig8`] |
//! | CensusDB classification accuracy | Figure 9 | [`experiments::fig9`] |
//! | Relevance feedback (extension) | — (Section 7 plan) | [`experiments::feedback`] |
//! | Importance-source ablation (extension) | — | [`experiments::ablation`] |
//! | Fault matrix: degradation under source failures (extension) | — | [`experiments::faults`] |
//! | Probe economy: dedup + cache vs the seed engine (extension) | — | [`experiments::cache`] |
//! | Posting-list executor: shared-plan work vs one-shot (extension) | — | [`experiments::postings`] |
//! | Federation: recall vs number of failed sources (extension) | — | [`experiments::federation`] |
//!
//! Each runner is a pure function of a [`Scale`] (dataset sizes) and a
//! seed, returns a typed result struct, and renders the same rows/series
//! the paper reports as an ASCII table. The crate's `aimq-eval` binary
//! runs one of them by name and prints its report
//! ([`experiments::report`]):
//!
//! ```text
//! cargo run -p aimq-eval --release -- <experiment>
//! ```
//!
//! The suite's integration tests run the runners at [`Scale::quick`]
//! and assert the paper's *qualitative* claims (who wins, what stays
//! stable) rather than absolute numbers.

pub mod experiments;
mod metrics;
mod scale;
mod table;
mod users;

pub use metrics::{accuracy_at_k, redefined_mrr};
pub use scale::Scale;
pub use table::{f3, secs, TextTable};
pub use users::{simulate_user_ranks, SimulatedUser};
