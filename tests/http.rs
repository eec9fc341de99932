//! The tentpole guarantee of the HTTP front door: the wire path is
//! I/O-only. A search served over a real socket must produce a `result`
//! member **byte-identical** to the in-process engine's serialized
//! [`AnswerSet`] for the same query against an identically-built source
//! stack — same answers, same similarities, same degradation report,
//! same JSON bytes. It must hold under concurrent keep-alive clients
//! too, where admission may refuse a search with a typed 429 but never
//! answers one differently or fails one with a 5xx.

use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

use aimq_suite::catalog::{ImpreciseQuery, Json, Value};
use aimq_suite::data::CarDb;
use aimq_suite::engine::{AimqSystem, EngineConfig, TrainConfig};
use aimq_suite::http::{client, AimqHttpServer, HttpConfig};
use aimq_suite::serve::ServeConfig;
use aimq_suite::storage::{CachedWebDb, InMemoryWebDb, Relation, WebDatabase};

fn build_stack(relation: &Relation) -> Arc<dyn WebDatabase> {
    Arc::new(CachedWebDb::with_stripes(
        InMemoryWebDb::new(relation.clone()),
        1024,
        8,
    ))
}

/// The eval-suite query shape: each query binds every non-null
/// attribute of a probe tuple, in schema order — exactly the pairs the
/// HTTP body carries, so the wire and in-process paths see the same
/// bindings in the same order.
fn query_bindings(relation: &Relation, row: u32) -> Vec<(String, Value)> {
    let schema = relation.schema();
    let tuple = relation.tuple(row);
    schema
        .attributes()
        .iter()
        .enumerate()
        .filter_map(|(i, attr)| {
            let value = tuple.values().get(i)?;
            if matches!(value, Value::Null) {
                None
            } else {
                Some((attr.name().to_string(), value.clone()))
            }
        })
        .collect()
}

fn to_http_body(bindings: &[(String, Value)]) -> String {
    let pairs = bindings
        .iter()
        .map(|(name, value)| (name.clone(), value.to_json()))
        .collect();
    Json::Obj(vec![("query".to_string(), Json::Obj(pairs))]).to_string_compact()
}

fn to_query(relation: &Relation, bindings: &[(String, Value)]) -> ImpreciseQuery {
    let mut builder = ImpreciseQuery::builder(relation.schema());
    for (name, value) in bindings {
        builder = builder.like(name, value.clone()).expect("known attribute");
    }
    builder.build().expect("non-empty query")
}

struct Harness {
    relation: Relation,
    system: Arc<AimqSystem>,
    queries: Vec<Vec<(String, Value)>>,
    /// The in-process engine's compact `result` JSON per query, replayed
    /// serially on a cold, identically-built stack.
    reference: Vec<String>,
}

fn harness() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        let relation = CarDb::generate(1200, 19);
        let sample = relation.random_sample(500, 3);
        let system = Arc::new(AimqSystem::train(&sample, &TrainConfig::default()).unwrap());
        let queries: Vec<Vec<(String, Value)>> = (0..5u32)
            .map(|i| query_bindings(&relation, i * 83))
            .collect();
        let reference = {
            let stack = build_stack(&relation);
            queries
                .iter()
                .map(|bindings| {
                    let q = to_query(&relation, bindings);
                    system
                        .answer(&*stack, &q, &EngineConfig::default())
                        .to_json(relation.schema())
                        .to_string_compact()
                })
                .collect()
        };
        Harness {
            relation,
            system,
            queries,
            reference,
        }
    })
}

fn start_server(workers: usize, queue_capacity: usize) -> AimqHttpServer {
    let h = harness();
    AimqHttpServer::start(
        Arc::clone(&h.system),
        build_stack(&h.relation),
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            index: "cardb".to_string(),
            serve: ServeConfig {
                workers,
                queue_capacity,
                ..ServeConfig::default()
            },
        },
    )
    .expect("bind")
}

/// Assert that a search reply's `result` matches the reference answer
/// byte for byte in each of `members`.
fn assert_members_match(reply_body: &str, expected: &str, members: &[&str]) {
    let parsed = Json::parse(reply_body).expect("response is JSON");
    let result = parsed.get("result").expect("result");
    let expected = Json::parse(expected).expect("reference is JSON");
    for member in members {
        assert_eq!(
            result.get(member).map(Json::to_string_compact),
            expected.get(member).map(Json::to_string_compact),
            "`{member}` must match the in-process answer byte-for-byte"
        );
    }
}

#[test]
fn http_search_results_are_byte_identical_to_the_in_process_engine() {
    let h = harness();
    let (queries, reference) = (&h.queries, &h.reference);

    // Wire path: one worker, sequential requests — the same replay, but
    // every byte crosses a real socket.
    let server = start_server(1, 8);

    for (bindings, expected) in queries.iter().zip(reference) {
        let body = to_http_body(bindings);
        let reply = client::request(server.addr(), "POST", "/indexes/cardb/search", Some(&body))
            .expect("search reply");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let parsed = Json::parse(&reply.body).expect("response is JSON");
        let result = parsed
            .get("result")
            .expect("search response carries `result`");
        assert_eq!(
            &result.to_string_compact(),
            expected,
            "wire result must be byte-identical to the in-process answer"
        );
        assert_eq!(
            parsed.get("deadline_exceeded").and_then(Json::as_bool),
            Some(false)
        );
    }

    // Replaying a query on the warm stack changes cache traffic — and
    // therefore the meter-derived `stats` member — but not one byte of
    // the ranked answers, base query, or degradation report (the
    // comparable surface per `aimq-serve`'s determinism contract).
    if let (Some(bindings), Some(expected)) = (queries.first(), reference.first()) {
        let reply = client::request(
            server.addr(),
            "POST",
            "/indexes/cardb/search",
            Some(&to_http_body(bindings)),
        )
        .expect("repeat reply");
        assert_members_match(
            &reply.body,
            expected,
            &["answers", "base_query", "base_set_size", "degradation"],
        );
    }

    let final_stats = server.shutdown();
    assert_eq!(final_stats.completed, queries.len() as u64 + 1);
    assert_eq!(final_stats.replies_dropped, 0);
}

#[test]
fn concurrent_keep_alive_clients_get_identical_answers_or_a_typed_429() {
    const CLIENTS: usize = 4;
    const SEARCHES: usize = 10;
    let h = harness();
    // Two workers behind a two-slot queue: four clients can outrun
    // admission, so both outcomes of a search are exercised.
    let server = start_server(2, 2);
    let addr = server.addr();

    let replies: Vec<(usize, client::Reply)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    (0..SEARCHES)
                        .map(|i| {
                            let q = (c + i) % h.queries.len();
                            let body = to_http_body(&h.queries[q]);
                            let reply = client::exchange(
                                &mut stream,
                                "POST",
                                "/indexes/cardb/search",
                                Some(&body),
                            )
                            .expect("no transport error");
                            (q, reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    let (mut ok, mut rejected) = (0u64, 0u64);
    for (q, reply) in &replies {
        match reply.status {
            200 => {
                ok += 1;
                // `stats` and `degradation.retries` aggregate across
                // workers (the determinism contract of `aimq-serve`),
                // so only the meter-free surface is compared.
                assert_members_match(
                    &reply.body,
                    &h.reference[*q],
                    &["answers", "base_query", "base_set_size"],
                );
            }
            429 => {
                rejected += 1;
                assert_eq!(reply.header("retry-after"), Some("1"), "{}", reply.body);
            }
            other => panic!("unexpected status {other}: {}", reply.body),
        }
    }
    assert_eq!(ok + rejected, (CLIENTS * SEARCHES) as u64);

    let stats = client::request(addr, "GET", "/stats", None).expect("stats reply");
    assert_eq!(stats.status, 200, "{}", stats.body);
    let stats = Json::parse(&stats.body).expect("stats is JSON");
    let http = stats.get("http").expect("stats carries `http`");
    for counter in ["responses_5xx", "connection_errors"] {
        assert_eq!(
            http.get(counter).and_then(Json::as_u64),
            Some(0),
            "{counter}: {}",
            http.to_string_compact()
        );
    }

    let final_stats = server.shutdown();
    assert_eq!(final_stats.submitted, ok + rejected, "{final_stats:#?}");
    assert_eq!(final_stats.completed, ok, "{final_stats:#?}");
    assert_eq!(final_stats.rejected, rejected, "{final_stats:#?}");
}
