//! Dropped and absorbed faults: rustc and clippy must reject every
//! form of them that result discipline (L9) and degradation flow (L13)
//! forbid.

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

/// `let _ =` discards the fault.
pub fn let_underscore() {
    let _ = try_query(false);
}

/// `.ok();` discards the fault.
pub fn ok_statement() {
    try_query(false).ok();
}

/// A bare call statement discards the fault.
pub fn bare_call() {
    try_query(false);
}

/// A fault is built and never reaches a sink.
pub fn unused_fault() {
    let verdict = QueryError::Timeout;
}

/// A fault is built as a bare statement.
pub fn bare_fault() {
    QueryError::Unavailable;
}

/// A wildcard absorbs the one remaining variant of a two-variant enum.
pub fn retries(e: QueryError) -> u32 {
    match e {
        QueryError::Timeout => 3,
        _ => 0,
    }
}

/// A wildcard absorbs two variants of a three-variant enum.
pub fn status(e: ServeError) -> u16 {
    match e {
        ServeError::Overloaded => 429,
        _ => 503,
    }
}
