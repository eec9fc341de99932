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

//! # aimq-rock
//!
//! A from-scratch implementation of **ROCK** (*RObust Clustering using
//! linKs*; Guha, Rastogi & Shim, ICDE 1999) — the domain- and
//! user-independent baseline the AIMQ paper compares against (Section 6).
//!
//! ROCK clusters categorical tuples without a distance metric in value
//! space. Instead it counts **links**:
//!
//! * two tuples are *neighbors* when their Jaccard similarity (over their
//!   attribute–value pair sets) is at least a threshold θ;
//! * `link(p, q)` = number of common neighbors of `p` and `q`;
//! * clusters are merged greedily by the **goodness measure**
//!   `g(Ci, Cj) = links[Ci,Cj] / ((ni+nj)^(1+2f(θ)) − ni^(1+2f(θ)) − nj^(1+2f(θ)))`
//!   with `f(θ) = (1−θ)/(1+θ)`.
//!
//! Because link computation is `O(n · d²)` (d = average neighbor degree)
//! and clustering worst-case `O(n³)`, ROCK runs on a *sample* and the
//! remaining tuples are assigned to clusters by the paper's labeling rule
//! (most neighbors in a cluster, normalized by `(nc+1)^f(θ)`). The AIMQ
//! paper does exactly this, clustering 2k tuples and labeling the rest
//! (Table 2).
//!
//! [`RockModel::answer`] turns the clustering into an imprecise-query
//! answerer: the answers for a query tuple are its cluster's members,
//! ranked by Jaccard similarity — the comparison system of Sections
//! 6.4–6.5.

mod cluster;
mod links;
mod model;
mod points;

pub use cluster::{cluster_greedy, Clustering};
pub use links::compute_links;
pub use model::{RockConfig, RockModel, RockTimings};
pub use points::PointSet;
