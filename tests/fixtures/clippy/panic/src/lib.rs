//! Panic-freedom violations in a library crate root that denies the
//! panic lints the way the workspace library crates do. Each function
//! trips one lint; clippy must reject the crate naming all six.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// `clippy::unwrap_used`.
pub fn first(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}

/// `clippy::expect_used`.
pub fn last(xs: &[f64]) -> f64 {
    *xs.last().expect("non-empty")
}

/// `clippy::panic`.
pub fn checked(n: u32) -> u32 {
    if n == 0 {
        panic!("zero");
    }
    n
}

/// `clippy::unreachable`.
pub fn parity(n: u32) -> &'static str {
    match n % 2 {
        0 => "even",
        1 => "odd",
        _ => unreachable!(),
    }
}

/// `clippy::todo`.
pub fn later() -> u32 {
    todo!()
}

/// `clippy::unimplemented`.
pub fn never() -> u32 {
    unimplemented!()
}
