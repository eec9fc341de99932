//! Direct indexing and slicing in a library crate root that denies
//! `clippy::indexing_slicing`: clippy must reject both.
#![deny(clippy::indexing_slicing)]

/// `xs[0]` panics on an empty slice.
pub fn first(xs: &[u32]) -> u32 {
    xs[0]
}

/// `xs[1..]` panics on an empty slice.
pub fn tail(xs: &[u32]) -> &[u32] {
    &xs[1..]
}
