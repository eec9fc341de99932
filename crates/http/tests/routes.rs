//! Route-semantics tests over real sockets, with exact pinned response
//! bodies: the wire protocol is part of the public contract, so these
//! tests assert bytes, not shapes, wherever the body is deterministic.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use aimq::{AimqSystem, TrainConfig};
use aimq_catalog::{Json, Schema, SelectionQuery};
use aimq_data::CarDb;
use aimq_http::{client, AimqHttpServer, HttpConfig};
use aimq_serve::ServeConfig;
use aimq_storage::{AccessStats, CachedWebDb, InMemoryWebDb, QueryError, QueryPage, WebDatabase};

fn system_and_db() -> (Arc<AimqSystem>, Arc<dyn WebDatabase>) {
    let db = InMemoryWebDb::new(CarDb::generate(600, 7));
    let sample = db.relation().random_sample(200, 1);
    let system = AimqSystem::train(&sample, &TrainConfig::default()).unwrap();
    let shared: Arc<dyn WebDatabase> = Arc::new(CachedWebDb::with_stripes(db, 1024, 8));
    (Arc::new(system), shared)
}

fn start(serve: ServeConfig) -> AimqHttpServer {
    let (system, db) = system_and_db();
    let config = HttpConfig {
        addr: "127.0.0.1:0".to_string(),
        index: "cardb".to_string(),
        serve,
    };
    AimqHttpServer::start(system, db, config).expect("bind")
}

const SEARCH: &str = "/indexes/cardb/search";
const CAMRY: &str = r#"{"query":{"Model":"Camry"}}"#;

#[test]
fn health_and_stats_respond_with_shared_snapshots() {
    let server = start(ServeConfig::default());
    let health = client::request(server.addr(), "GET", "/health", None).expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, r#"{"status":"ok","index":"cardb"}"#);

    // Serve one query so the counters are non-trivial.
    let ok = client::request(server.addr(), "POST", SEARCH, Some(CAMRY)).expect("search");
    assert_eq!(ok.status, 200);

    let stats = client::request(server.addr(), "GET", "/stats", None).expect("stats");
    assert_eq!(stats.status, 200);
    let body = Json::parse(&stats.body).expect("stats is JSON");
    let serve = body.get("serve").expect("serve section");
    assert_eq!(serve.get("completed").and_then(Json::as_u64), Some(1));
    let access = body.get("access").expect("access section");
    assert!(
        access
            .get("queries_issued")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );
    assert!(body.get("sources").and_then(Json::as_array).is_some());
    let http = body.get("http").expect("http section");
    assert!(
        http.get("requests_served")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2
    );
    server.shutdown();
}

#[test]
fn malformed_json_body_is_a_pinned_400() {
    let server = start(ServeConfig::default());
    let reply = client::request(server.addr(), "POST", SEARCH, Some("?")).expect("reply");
    assert_eq!(reply.status, 400);
    assert_eq!(
        reply.body,
        r#"{"error":{"code":"bad_request","message":"invalid JSON at byte 0: expected a JSON value"}}"#
    );

    // Well-formed JSON, wrong shape: the pinned usage message.
    let reply = client::request(server.addr(), "POST", SEARCH, Some(r#"{"q":1}"#)).expect("reply");
    assert_eq!(reply.status, 400);
    assert_eq!(
        reply.body,
        r#"{"error":{"code":"bad_request","message":"body must be `{\"query\": {attribute: value, ...}}`"}}"#
    );

    // A binding that is neither string nor number.
    let reply = client::request(
        server.addr(),
        "POST",
        SEARCH,
        Some(r#"{"query":{"Model":[1]}}"#),
    )
    .expect("reply");
    assert_eq!(reply.status, 400);
    assert_eq!(
        reply.body,
        r#"{"error":{"code":"bad_request","message":"attribute `Model` must bind a string or a number, got [1]"}}"#
    );

    // An attribute the schema does not know: still a 400, with the
    // catalog's own message (not pinned here — it belongs to catalog).
    let reply = client::request(
        server.addr(),
        "POST",
        SEARCH,
        Some(r#"{"query":{"Nope":"x"}}"#),
    )
    .expect("reply");
    assert_eq!(reply.status, 400);
    assert!(
        reply.body.contains("\"code\":\"bad_request\""),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("Nope"), "{}", reply.body);
    server.shutdown();
}

#[test]
fn unknown_index_is_a_pinned_404() {
    let server = start(ServeConfig::default());
    let reply =
        client::request(server.addr(), "POST", "/indexes/nope/search", Some(CAMRY)).expect("reply");
    assert_eq!(reply.status, 404);
    assert_eq!(
        reply.body,
        r#"{"error":{"code":"unknown_index","message":"no index named `nope`; this server serves `cardb`"}}"#
    );

    let reply = client::request(server.addr(), "GET", "/no/such/route", None).expect("reply");
    assert_eq!(reply.status, 404);
    assert_eq!(
        reply.body,
        r#"{"error":{"code":"not_found","message":"no route for GET /no/such/route"}}"#
    );
    server.shutdown();
}

#[test]
fn wrong_method_is_405_with_allow_header() {
    let server = start(ServeConfig::default());
    let reply = client::request(server.addr(), "GET", SEARCH, None).expect("reply");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("POST"));
    assert_eq!(
        reply.body,
        r#"{"error":{"code":"method_not_allowed","message":"allowed methods: POST"}}"#
    );

    let reply = client::request(server.addr(), "DELETE", "/config", None).expect("reply");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("GET, PATCH"));
    server.shutdown();
}

#[test]
fn config_roundtrip_patches_the_live_engine() {
    let server = start(ServeConfig::default());
    let before = client::request(server.addr(), "GET", "/config", None).expect("config");
    assert_eq!(before.status, 200);
    let parsed = Json::parse(&before.body).expect("config is JSON");
    assert_eq!(parsed.get("top_k").and_then(Json::as_u64), Some(10));

    let patched =
        client::request(server.addr(), "PATCH", "/config", Some(r#"{"top_k": 3}"#)).expect("patch");
    assert_eq!(patched.status, 200);
    let parsed = Json::parse(&patched.body).expect("patched config is JSON");
    assert_eq!(parsed.get("top_k").and_then(Json::as_u64), Some(3));

    // The patch applies to queries dequeued after it.
    let reply = client::request(server.addr(), "POST", SEARCH, Some(CAMRY)).expect("search");
    assert_eq!(reply.status, 200);
    let body = Json::parse(&reply.body).expect("search body");
    let answers = body
        .get("result")
        .and_then(|r| r.get("answers"))
        .and_then(Json::as_array)
        .expect("answers");
    assert!(answers.len() <= 3, "patched top_k must bound answers");

    // Unknown keys are an all-or-nothing 400 — retired knobs included.
    for bad in [
        r#"{"top_k": 5, "no_such_knob": 1}"#,
        r#"{"top_k": 5, "batch_plans": true}"#,
    ] {
        let rejected =
            client::request(server.addr(), "PATCH", "/config", Some(bad)).expect("bad patch");
        assert_eq!(rejected.status, 400, "{bad}");
        assert!(
            rejected.body.contains("\"code\":\"invalid_config\""),
            "{}",
            rejected.body
        );
    }
    let after = client::request(server.addr(), "GET", "/config", None).expect("config");
    let parsed = Json::parse(&after.body).expect("config is JSON");
    assert_eq!(
        parsed.get("top_k").and_then(Json::as_u64),
        Some(3),
        "a rejected patch must change nothing"
    );
    server.shutdown();
}

/// A database whose probes block until the test drops the sender —
/// deterministically wedges the worker so overload is observable.
struct GatedDb<D> {
    inner: D,
    gate: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl<D: WebDatabase> WebDatabase for GatedDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let _ = self.gate.lock().expect("gate lock").recv();
        self.inner.try_query(query)
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[test]
fn overload_is_a_pinned_429_with_retry_after() {
    let (system, _) = system_and_db();
    let (hold, gate) = std::sync::mpsc::channel::<()>();
    let db: Arc<dyn WebDatabase> = Arc::new(GatedDb {
        inner: InMemoryWebDb::new(CarDb::generate(600, 7)),
        gate: std::sync::Mutex::new(gate),
    });
    let server = AimqHttpServer::start(
        system,
        db,
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            index: "cardb".to_string(),
            serve: ServeConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Fill the pool: one query wedged in the gated probe, one queued.
    let in_flight: Vec<_> = (0..2)
        .map(|_| {
            let handle =
                std::thread::spawn(move || client::request(addr, "POST", SEARCH, Some(CAMRY)));
            // Let the request reach admission before offering the next.
            std::thread::sleep(Duration::from_millis(150));
            handle
        })
        .collect();

    // Third concurrent query: the admission queue refuses it.
    let reply = client::request(addr, "POST", SEARCH, Some(CAMRY)).expect("reply");
    assert_eq!(reply.status, 429);
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert_eq!(
        reply.body,
        r#"{"error":{"code":"overloaded","message":"admission queue full; query rejected"}}"#
    );

    // Open the gate; the two admitted queries complete normally.
    drop(hold);
    for handle in in_flight {
        let reply = handle.join().expect("client thread").expect("reply");
        assert_eq!(reply.status, 200);
    }
    let final_stats = server.shutdown();
    assert_eq!(final_stats.admitted, 2);
    assert_eq!(final_stats.rejected, 1);
    assert_eq!(final_stats.completed, 2);
}

#[test]
fn deadline_partial_is_a_200_with_degradation() {
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        deadline_ticks: 1, // one probe, then the axe
        ticks_per_probe: 1,
        ..ServeConfig::default()
    });
    let reply = client::request(server.addr(), "POST", SEARCH, Some(CAMRY)).expect("reply");
    assert_eq!(reply.status, 200, "a degraded answer is still an answer");
    let body = Json::parse(&reply.body).expect("body is JSON");
    assert_eq!(
        body.get("deadline_exceeded").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(body.get("latency_ticks"), Some(&Json::Null));
    assert_eq!(body.get("worker"), Some(&Json::Null));
    let degradation = body
        .get("result")
        .and_then(|r| r.get("degradation"))
        .expect("partial result carries its degradation report");
    let skipped = degradation
        .get("probes_skipped")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let source_lost = degradation
        .get("source_lost")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    assert!(
        source_lost || skipped > 0,
        "deadline must surface as degradation: {degradation}"
    );
    let final_stats = server.shutdown();
    assert_eq!(final_stats.deadline_missed, 1);
}

#[test]
fn keep_alive_serves_many_exchanges_on_one_stream() {
    let server = start(ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for _ in 0..3 {
        let health = client::exchange(&mut stream, "GET", "/health", None).expect("health");
        assert_eq!(health.status, 200);
        let search = client::exchange(&mut stream, "POST", SEARCH, Some(CAMRY)).expect("search");
        assert_eq!(search.status, 200);
        assert_eq!(search.header("connection"), Some("keep-alive"));
    }
    let snapshot = server.stats();
    assert_eq!(
        snapshot.completed, 3,
        "all three searches served over one connection"
    );
    server.shutdown();
}

#[test]
fn framing_garbage_gets_a_400_and_a_close() {
    use std::io::Write;
    let server = start(ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"THIS IS NOT HTTP\r\n\r\n")
        .expect("write");
    let reply = {
        // Reuse the client's reply reader via a one-off exchange-less read:
        // the server answers 400 and closes.
        use std::io::Read;
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).expect("read");
        String::from_utf8(buf).expect("utf8")
    };
    assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply}");
    assert!(reply.contains("connection: close"), "{reply}");
    assert!(reply.contains("\"code\":\"bad_request\""), "{reply}");
    server.shutdown();
}

#[test]
fn shutdown_under_load_drops_no_replies() {
    let server = start(ServeConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut served = 0u64;
                for _ in 0..10 {
                    match client::request(addr, "POST", SEARCH, Some(CAMRY)) {
                        Ok(reply) if reply.status == 200 => served += 1,
                        // 429/503 are valid refusals; transport errors
                        // mean the listener is already gone.
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                served
            })
        })
        .collect();
    // Shut down while the clients are mid-burst.
    std::thread::sleep(Duration::from_millis(200));
    let final_stats = server.shutdown();
    let served_by_clients: u64 = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    assert_eq!(
        final_stats.replies_dropped, 0,
        "drain-before-snapshot must redeem every admitted ticket: {final_stats:#?}"
    );
    assert_eq!(
        final_stats.completed + final_stats.deadline_missed,
        final_stats.admitted,
        "every admitted query is served exactly once: {final_stats:#?}"
    );
    assert!(
        served_by_clients >= final_stats.completed.saturating_sub(1),
        "replies the pool completed were delivered to clients: {served_by_clients} vs {final_stats:#?}"
    );
}
