//! The `fault_discipline` fixture with every site justified by an
//! `#[expect]`: rustc and clippy must accept it.

/// A two-variant fault enum, `#[must_use]` like the workspace's.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// Retryable.
    Timeout,
    /// Terminal.
    Unavailable,
}

/// A three-variant fault enum.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Backlog full.
    Overloaded,
    /// Budget spent.
    DeadlineExceeded,
    /// Draining.
    ShuttingDown,
}

/// A fault-returning probe.
pub fn try_query(ok: bool) -> Result<u32, QueryError> {
    if ok {
        Ok(1)
    } else {
        Err(QueryError::Timeout)
    }
}

/// Justified `let _ =`.
pub fn let_underscore() {
    #[expect(
        clippy::let_underscore_must_use,
        clippy::let_underscore_untyped,
        reason = "fixture: a warm-up probe whose outcome the caller re-probes"
    )]
    let _ = try_query(false);
}

/// Justified `.ok();`.
#[expect(
    clippy::unused_result_ok,
    reason = "fixture: a warm-up probe whose outcome the caller re-probes"
)]
pub fn ok_statement() {
    try_query(false).ok();
}

/// Justified bare call statement.
pub fn bare_call() {
    #[expect(
        unused_must_use,
        reason = "fixture: a warm-up probe whose outcome the caller re-probes"
    )]
    try_query(false);
}

/// Justified unused fault.
pub fn unused_fault() {
    #[expect(unused_variables, reason = "fixture: kept to name the default verdict")]
    let verdict = QueryError::Timeout;
}

/// Justified bare fault statement.
#[expect(
    unused_must_use,
    path_statements,
    reason = "fixture: a no-op that names the terminal variant"
)]
pub fn bare_fault() {
    QueryError::Unavailable;
}

/// Justified wildcard over a two-variant enum.
pub fn retries(e: QueryError) -> u32 {
    #[expect(
        clippy::match_wildcard_for_single_variants,
        reason = "fixture: every non-retryable fault gets no retries"
    )]
    match e {
        QueryError::Timeout => 3,
        _ => 0,
    }
}

/// Justified wildcard over a three-variant enum.
pub fn status(e: ServeError) -> u16 {
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "fixture: every refusal but overload is a 503"
    )]
    match e {
        ServeError::Overloaded => 429,
        _ => 503,
    }
}
