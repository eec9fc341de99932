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

//! # aimq-afd
//!
//! Mining of **approximate functional dependencies** (AFDs) and
//! **approximate keys** (AKeys), plus the attribute-importance ordering
//! they induce — Section 4 of the AIMQ paper.
//!
//! The mining algorithm is a from-scratch implementation of **TANE**
//! (Huhtala, Kärkkäinen, Porkka & Toivonen, *Efficient Discovery of
//! Functional and Approximate Dependencies Using Partitions*, ICDE 1998),
//! the algorithm the paper itself uses:
//!
//! * tuples are grouped into *stripped partitions* (equivalence classes of
//!   size ≥ 2) per attribute set;
//! * partitions for larger sets are computed by the linear-time partition
//!   *product*;
//! * the error of a dependency is the **g3 measure** of Kivinen & Mannila:
//!   the minimum fraction of tuples to delete for the dependency to hold
//!   exactly;
//! * the search proceeds levelwise through the attribute-set lattice.
//!
//! On top of the mined dependencies, [`AttributeOrdering`] implements the
//! paper's **Algorithm 2**: the approximate key with the highest support
//! splits the schema into a *deciding* and a *dependent* group, each group
//! is sorted by its summed (support / antecedent-size) weight, and the
//! concatenation — dependent group first — is the relaxation order. The
//! derived [`Wimp`](AttributeOrdering::importance) weights feed both query
//! relaxation (`aimq` crate) and similarity estimation (`aimq-sim`).
//!
//! Numeric attributes are bucketized before mining (see
//! [`EncodedRelation`]); the paper's own supertuples (Table 1) show the
//! same treatment (`Price 1k-5k`, `Mileage 10k-15k`).

mod attrset;
mod encoding;
mod ordering;
mod partition;
mod tane;

pub use attrset::AttrSet;
pub use encoding::{BucketConfig, EncodedRelation};
pub use ordering::{combinations_in_order, AttributeOrdering, OrderingError, RelaxationStep};
pub use partition::Partition;
pub use tane::{AKey, Afd, MinedDependencies, TaneConfig};
