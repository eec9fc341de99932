//! Answer checking. Every answer the benchmark times is compared with the
//! single-threaded engine's answer for the same query on the bare
//! in-memory source; any difference counts as a failed query.

use aimq::{AnswerSet, Completeness};
use aimq_catalog::{Json, Schema};

/// Digest of one result in its wire form ([`AnswerSet::to_json`], which
/// is also the `result` member of an HTTP search reply): the ranked
/// answers (tuple, similarity, provenance), the base query and `|Abs|`.
/// Meter-derived members (`stats`, the degradation counters) are left
/// out: under concurrency they aggregate other workers' probes.
pub fn digest(result: &Json) -> Option<u64> {
    let covered = Json::obj(vec![
        ("answers", result.get("answers")?.clone()),
        ("base_query", result.get("base_query")?.clone()),
        ("base_set_size", result.get("base_set_size")?.clone()),
    ]);
    Some(fnv1a(covered.to_string_compact().as_bytes()))
}

/// Digest of an in-process answer (the reference side of every check).
pub fn answer_digest(answer: &AnswerSet, schema: &Schema) -> u64 {
    digest(&answer.to_json(schema)).expect("AnswerSet::to_json carries every digested member")
}

/// The digest of an in-process answer that is `Full`; `None` for a
/// degraded answer, which never matches a reference.
pub fn full_digest(answer: &AnswerSet, schema: &Schema) -> Option<u64> {
    (answer.degradation.completeness == Completeness::Full).then(|| answer_digest(answer, schema))
}

/// `true` when `result` is a complete answer whose digest is `expected`.
fn result_matches(result: &Json, expected: u64) -> bool {
    let full = result
        .get("degradation")
        .and_then(|d| d.get("completeness"))
        .and_then(Json::as_str)
        == Some("full");
    full && digest(result) == Some(expected)
}

/// Check one HTTP search reply: status 200, a JSON body, no deadline
/// miss, and a `result` member that matches the reference digest.
pub fn reply_matches(status: u16, body: &[u8], expected: u64) -> bool {
    if status != 200 {
        return false;
    }
    let Some(json) = std::str::from_utf8(body)
        .ok()
        .and_then(|s| Json::parse(s).ok())
    else {
        return false;
    };
    json.get("deadline_exceeded").and_then(Json::as_bool) == Some(false)
        && json
            .get("result")
            .is_some_and(|result| result_matches(result, expected))
}

/// 64-bit FNV-1a: a stable digest (std's hasher is seeded per process).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq::{DegradationReport, Provenance, RankedAnswer, WorkStats};
    use aimq_catalog::{AttrId, Predicate, SelectionQuery, Tuple, Value};

    fn schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap()
    }

    fn answer() -> AnswerSet {
        let s = schema();
        let tuple = |make: &str, price: f64| {
            Tuple::new(&s, vec![Value::cat(make), Value::num(price)]).unwrap()
        };
        AnswerSet {
            answers: vec![
                RankedAnswer {
                    tuple: tuple("Toyota", 9000.0),
                    similarity: 0.9,
                    provenance: Provenance::BaseSet,
                },
                RankedAnswer {
                    tuple: tuple("Honda", 9500.0),
                    similarity: 0.7,
                    provenance: Provenance::Relaxed {
                        base_index: 0,
                        relaxed_attrs: vec![AttrId(0)],
                    },
                },
            ],
            stats: WorkStats {
                queries_issued: 5,
                tuples_extracted: 40,
                tuples_examined: 30,
                relevant_found: 4,
            },
            base_query: SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))]),
            base_set_size: 1,
            degradation: DegradationReport::default(),
        }
    }

    fn check(a: &AnswerSet) -> bool {
        full_digest(a, &schema()) == Some(answer_digest(&answer(), &schema()))
    }

    #[test]
    fn identical_answer_passes() {
        assert!(check(&answer()));
    }

    #[test]
    fn perturbed_answers_are_rejected() {
        let mut a = answer();
        a.answers[1].similarity = f64::from_bits(a.answers[1].similarity.to_bits() + 1);
        assert!(!check(&a), "one-ulp similarity change");

        let mut a = answer();
        a.answers.swap(0, 1);
        assert!(!check(&a), "ranking order");

        let mut a = answer();
        a.answers[1].provenance = Provenance::BaseSet;
        assert!(!check(&a), "provenance");

        let mut a = answer();
        a.base_set_size = 2;
        assert!(!check(&a), "|Abs|");

        let mut a = answer();
        a.base_query = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Honda"))]);
        assert!(!check(&a), "base query");

        let mut a = answer();
        a.answers.pop();
        assert!(!check(&a), "missing answer");
    }

    #[test]
    fn degraded_answer_is_rejected_even_with_the_right_tuples() {
        let mut a = answer();
        a.degradation.completeness = Completeness::Partial;
        assert!(!check(&a));
    }

    #[test]
    fn meter_fields_are_not_digested() {
        let mut a = answer();
        a.stats.queries_issued = 999;
        a.degradation.probes_deduped = 7;
        assert!(check(&a));
    }

    #[test]
    fn http_replies_are_checked_through_their_result_member() {
        let expected = answer_digest(&answer(), &schema());
        let reply = |result: Json, deadline: bool| {
            Json::obj(vec![
                ("index", Json::Str("cardb".into())),
                ("result", result),
                ("latency_ticks", Json::Num(3.0)),
                ("worker", Json::Num(1.0)),
                ("deadline_exceeded", Json::Bool(deadline)),
            ])
            .to_string_compact()
        };
        let good = reply(answer().to_json(&schema()), false);
        assert!(reply_matches(200, good.as_bytes(), expected));
        assert!(!reply_matches(429, good.as_bytes(), expected));
        assert!(!reply_matches(200, b"not json", expected));
        let late = reply(answer().to_json(&schema()), true);
        assert!(!reply_matches(200, late.as_bytes(), expected));
        let mut wrong = answer();
        wrong.answers[0].similarity = 0.91;
        let bad = reply(wrong.to_json(&schema()), false);
        assert!(!reply_matches(200, bad.as_bytes(), expected));
    }
}
