//! The `panic` fixture with every site justified by an `#[expect]`:
//! clippy must accept it. Test code may unwrap, expect and panic
//! (`allow-*-in-tests` in clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Justified `unwrap`.
#[expect(clippy::unwrap_used, reason = "fixture: callers pass non-empty input")]
pub fn first(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}

/// Justified `expect`.
pub fn last(xs: &[f64]) -> f64 {
    #[expect(clippy::expect_used, reason = "fixture: callers pass non-empty input")]
    let last = xs.last().expect("non-empty");
    *last
}

/// Justified `panic!`.
#[expect(clippy::panic, reason = "fixture: zero is a caller contract violation")]
pub fn checked(n: u32) -> u32 {
    if n == 0 {
        panic!("zero");
    }
    n
}

/// Justified `unreachable!`.
#[expect(clippy::unreachable, reason = "fixture: n % 2 is 0 or 1")]
pub fn parity(n: u32) -> &'static str {
    match n % 2 {
        0 => "even",
        1 => "odd",
        _ => unreachable!(),
    }
}

/// Justified `todo!`.
#[expect(clippy::todo, reason = "fixture: placeholder")]
pub fn later() -> u32 {
    todo!()
}

/// Justified `unimplemented!`.
#[expect(clippy::unimplemented, reason = "fixture: placeholder")]
pub fn never() -> u32 {
    unimplemented!()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        let xs = [1.0, 2.0];
        assert_eq!(*xs.first().unwrap(), 1.0);
        assert_eq!(*xs.last().expect("non-empty"), 2.0);
        if xs.is_empty() {
            panic!("unreachable in practice");
        }
    }
}
