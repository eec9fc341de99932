//! Route dispatch: a pure function from one framed [`Request`] plus the
//! shared [`AppState`] to one [`Response`].
//!
//! The route table mirrors the MeiliDB shape:
//!
//! | method  | path                       | body in                  | 200 body out |
//! |---------|----------------------------|--------------------------|--------------|
//! | `POST`  | `/indexes/:name/search`    | `{"query":{attr:value}}` | `{"index","result","latency_ticks","worker","deadline_exceeded"}` |
//! | `GET`   | `/health`                  | —                        | `{"status","index"}` |
//! | `GET`   | `/stats`                   | —                        | `{"serve","access","sources","http"}` |
//! | `GET`   | `/config`                  | —                        | engine config |
//! | `PATCH` | `/config`                  | partial engine config    | updated engine config |
//!
//! Error mapping is total and typed: malformed JSON or queries → 400,
//! unknown index or route → 404, wrong method on a known path → 405
//! (with `Allow`), [`ServeError::Overloaded`] → 429 with `Retry-After`,
//! [`ServeError::ShuttingDown`] → 503, and a deadline miss → **200**
//! with the partial result and its degradation report
//! (`"deadline_exceeded":true`) — a degraded answer is an answer, not a
//! server failure. Every error body is
//! `{"error":{"code":...,"message":...}}`.
//!
//! Determinism boundary: every body is produced by the `to_json()`
//! family over `aimq_catalog::Json`, so a response's bytes are a pure
//! function of the engine's result — the end-to-end tests compare them
//! byte-for-byte against in-process serialization.

use std::sync::Arc;

use aimq_catalog::{Counter, ImpreciseQuery, Json, Value};
use aimq_serve::{QueryServer, ServeError};
use aimq_storage::WebDatabase;

use crate::wire::{ErrorCode, Request, Response};

/// Wire-level counters for the HTTP front door itself (the serving
/// runtime's counters live in [`aimq_serve::ServeStats`]).
#[derive(Debug, Default)]
pub struct HttpStats {
    connections_accepted: Counter,
    requests_served: Counter,
    responses_4xx: Counter,
    responses_5xx: Counter,
    connection_errors: Counter,
}

impl HttpStats {
    pub(crate) fn note_connection(&self) {
        self.connections_accepted.incr();
    }

    pub(crate) fn note_response(&self, status: u16) {
        self.requests_served.incr();
        if (400..500).contains(&status) {
            self.responses_4xx.incr();
        } else if status >= 500 {
            self.responses_5xx.incr();
        }
    }

    pub(crate) fn note_connection_error(&self) {
        self.connection_errors.incr();
    }

    /// The counters as a deterministic [`Json`] object, embedded in the
    /// `GET /stats` body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "connections_accepted",
                Json::Num(self.connections_accepted.get() as f64),
            ),
            (
                "requests_served",
                Json::Num(self.requests_served.get() as f64),
            ),
            ("responses_4xx", Json::Num(self.responses_4xx.get() as f64)),
            ("responses_5xx", Json::Num(self.responses_5xx.get() as f64)),
            (
                "connection_errors",
                Json::Num(self.connection_errors.get() as f64),
            ),
        ])
    }
}

/// Everything a connection handler needs to answer requests: the worker
/// pool, the source stack it probes (for `/stats`), the one index name
/// this server exposes, and the wire counters.
pub struct AppState {
    /// The serving runtime all searches are submitted to.
    pub server: QueryServer,
    /// The shared source stack (the same `Arc` the workers probe).
    pub db: Arc<dyn WebDatabase>,
    /// Name of the single index this server exposes.
    pub index: String,
    /// Wire-level counters.
    pub http_stats: HttpStats,
}

/// Answer one request. Total: every input maps to exactly one response.
pub fn dispatch(state: &AppState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => health(state),
        ("GET", ["stats"]) => stats(state),
        ("GET", ["config"]) => config_get(state),
        ("PATCH", ["config"]) => config_patch(state, req),
        ("POST", ["indexes", name, "search"]) => search(state, name, req),
        // Known paths, wrong method: 405 with the allowed set.
        (_, ["health"] | ["stats"]) => method_not_allowed("GET"),
        (_, ["config"]) => method_not_allowed("GET, PATCH"),
        (_, ["indexes", _, "search"]) => method_not_allowed("POST"),
        _ => Response::error(
            ErrorCode::NotFound,
            &format!("no route for {} {}", req.method, req.path),
        ),
    }
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(
        ErrorCode::MethodNotAllowed,
        &format!("allowed methods: {allow}"),
    )
    .with_header("allow", allow)
}

fn health(state: &AppState) -> Response {
    Response::json(
        200,
        &Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("index", Json::Str(state.index.clone())),
        ]),
    )
}

fn stats(state: &AppState) -> Response {
    let sources = state
        .db
        .source_health()
        .unwrap_or_default()
        .iter()
        .map(|s| s.to_json())
        .collect();
    Response::json(
        200,
        &Json::obj(vec![
            ("serve", state.server.stats().to_json()),
            ("access", state.db.stats().to_json()),
            ("sources", Json::Arr(sources)),
            ("http", state.http_stats.to_json()),
        ]),
    )
}

fn config_get(state: &AppState) -> Response {
    Response::json(200, &state.server.engine_config().to_json())
}

fn config_patch(state: &AppState, req: &Request) -> Response {
    let patch = match parse_body(req) {
        Ok(json) => json,
        Err(resp) => return *resp,
    };
    match state.server.engine_config().with_json_patch(&patch) {
        Ok(next) => {
            state.server.set_engine_config(next);
            Response::json(200, &next.to_json())
        }
        Err(message) => Response::error(ErrorCode::InvalidConfig, &message),
    }
}

fn search(state: &AppState, name: &str, req: &Request) -> Response {
    if name != state.index {
        return Response::error(
            ErrorCode::UnknownIndex,
            &format!(
                "no index named `{}`; this server serves `{}`",
                name, state.index
            ),
        );
    }
    let body = match parse_body(req) {
        Ok(json) => json,
        Err(resp) => return *resp,
    };
    let query = match build_query(state, &body) {
        Ok(query) => query,
        Err(resp) => return *resp,
    };
    let ticket = match state.server.submit(query) {
        Ok(ticket) => ticket,
        Err(error) => return serve_error(&error),
    };
    let schema = state.db.schema();
    match ticket.wait() {
        Ok(outcome) => Response::json(
            200,
            &Json::obj(vec![
                ("index", Json::Str(state.index.clone())),
                ("result", outcome.answer.to_json(schema)),
                ("latency_ticks", Json::Num(outcome.latency_ticks as f64)),
                ("worker", Json::Num(outcome.worker as f64)),
                ("deadline_exceeded", Json::Bool(false)),
            ]),
        ),
        // A deadline miss is a *degraded success*: the partial answer
        // set rides in the normal result slot, its damage itemized in
        // `result.degradation`, and the flag tells the client why the
        // set may be short.
        Err(ServeError::DeadlineExceeded { partial }) => Response::json(
            200,
            &Json::obj(vec![
                ("index", Json::Str(state.index.clone())),
                ("result", partial.to_json(schema)),
                ("latency_ticks", Json::Null),
                ("worker", Json::Null),
                ("deadline_exceeded", Json::Bool(true)),
            ]),
        ),
        Err(error) => serve_error(&error),
    }
}

/// Map a typed serving refusal to its wire form.
fn serve_error(error: &ServeError) -> Response {
    match error {
        ServeError::Overloaded => Response::error(
            ErrorCode::Overloaded,
            "admission queue full; query rejected",
        )
        .with_header("retry-after", "1"),
        ServeError::ShuttingDown => {
            Response::error(ErrorCode::ShuttingDown, "server is shutting down")
        }
        // `DeadlineExceeded` is handled at the call site (it is a 200
        // with a partial body, not an error response); reaching here
        // would be a routing bug, reported as such rather than hidden.
        ServeError::DeadlineExceeded { .. } => {
            Response::error(ErrorCode::Internal, "deadline partial mishandled")
        }
    }
}

/// Parse the request body as JSON; the `Err` side is the ready-made 400.
fn parse_body(req: &Request) -> Result<Json, Box<Response>> {
    let text = req.body_str().ok_or_else(|| {
        Box::new(Response::error(
            ErrorCode::BadRequest,
            "request body is not valid UTF-8",
        ))
    })?;
    Json::parse(text).map_err(|e| Box::new(Response::error(ErrorCode::BadRequest, &e.to_string())))
}

/// Build the imprecise query from `{"query": {attr: value, ...}}`.
fn build_query(state: &AppState, body: &Json) -> Result<ImpreciseQuery, Box<Response>> {
    let bad = |message: String| Box::new(Response::error(ErrorCode::BadRequest, &message));
    let bindings = body
        .get("query")
        .and_then(Json::as_object)
        .ok_or_else(|| bad("body must be `{\"query\": {attribute: value, ...}}`".to_string()))?;
    let schema = state.db.schema();
    let mut builder = ImpreciseQuery::builder(schema);
    for (attr, value) in bindings {
        let value = match value {
            Json::Str(s) => Value::cat(s.clone()),
            Json::Num(n) => Value::num(*n),
            other @ (Json::Null | Json::Bool(_) | Json::Arr(_) | Json::Obj(_)) => {
                return Err(bad(format!(
                    "attribute `{attr}` must bind a string or a number, got {other}"
                )))
            }
        };
        builder = builder.like(attr, value).map_err(|e| bad(e.to_string()))?;
    }
    builder.build().map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq::{AnswerSet, DegradationReport, WorkStats};
    use aimq_catalog::SelectionQuery;

    #[test]
    fn every_serve_error_maps_to_its_status_and_code() {
        let partial = AnswerSet {
            answers: Vec::new(),
            stats: WorkStats::default(),
            base_query: SelectionQuery::all(),
            base_set_size: 0,
            degradation: DegradationReport::default(),
        };
        let errors = [
            ServeError::Overloaded,
            ServeError::DeadlineExceeded {
                partial: Box::new(partial),
            },
            ServeError::ShuttingDown,
        ];
        for error in &errors {
            // Exhaustive: a new `ServeError` variant does not compile
            // until its wire form is pinned here.
            let (status, code) = match error {
                ServeError::Overloaded => (429, "overloaded"),
                ServeError::DeadlineExceeded { .. } => (500, "internal"),
                ServeError::ShuttingDown => (503, "shutting_down"),
            };
            let response = serve_error(error);
            assert_eq!(response.status, status, "{error:?}");
            let body = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
            let sent = body.get("error").and_then(|e| e.get("code"));
            assert_eq!(sent, Some(&Json::Str(code.into())), "{error:?}");
        }
    }
}
