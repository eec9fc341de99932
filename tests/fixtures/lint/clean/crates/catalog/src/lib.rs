//! Clean fixture: library code that follows every rule.

/// Mean of `xs`, `None` when empty — errors propagate, nothing panics.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    Some(sum / xs.len() as f64)
}

/// Scores sorted descending with the NaN-safe total order.
pub fn rank(mut scored: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored
}

/// A justified suppression is not a violation.
pub fn head(xs: &[f64]) -> f64 {
    // aimq-lint: allow(indexing) -- fixture: caller guarantees non-empty input
    xs[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_may_unwrap_and_index() {
        let xs = vec![1.0, 2.0];
        assert_eq!(mean(&xs).unwrap(), 1.5);
        assert_eq!(xs[0], 1.0);
    }
}
