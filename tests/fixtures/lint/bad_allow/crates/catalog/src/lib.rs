//! Malformed-suppression fixture: an allow with no justification and an
//! allow naming an unknown rule are both errors themselves.

/// Unjustified allow — flagged as `lint-allow`, and the indexing stays
/// flagged too.
pub fn head(xs: &[f64]) -> f64 {
    // aimq-lint: allow(indexing)
    xs[0]
}

/// Unknown rule name in the directive — flagged as `lint-allow`.
pub fn tail(xs: &[f64]) -> f64 {
    // aimq-lint: allow(indexng) -- typo in the rule name
    xs[xs.len() - 1]
}
