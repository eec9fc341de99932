//! An `#[expect]` that does not say why the lint does not apply: clippy
//! must reject it with `clippy::allow_attributes_without_reason`, even
//! though the expectation itself is fulfilled.
#![deny(clippy::indexing_slicing)]

/// The first element of a non-empty slice.
#[expect(clippy::indexing_slicing)]
pub fn first(xs: &[u32]) -> u32 {
    xs[0]
}
