//! The `indexing` fixture with each site justified by an `#[expect]`
//! that names the invariant keeping it in range, and test code that
//! indexes freely (`allow-indexing-slicing-in-tests` in clippy.toml):
//! clippy must accept it.
#![deny(clippy::indexing_slicing)]

/// The first element of a non-empty slice.
#[expect(
    clippy::indexing_slicing,
    reason = "fixture: callers pass non-empty input"
)]
pub fn first(xs: &[u32]) -> u32 {
    xs[0]
}

/// All but the first element of a non-empty slice.
pub fn tail(xs: &[u32]) -> &[u32] {
    #[expect(
        clippy::indexing_slicing,
        reason = "fixture: callers pass non-empty input"
    )]
    let rest = &xs[1..];
    rest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_may_index() {
        let xs = [1, 2, 3];
        assert_eq!(first(&xs), xs[0]);
        assert_eq!(tail(&xs), &xs[1..]);
    }
}
