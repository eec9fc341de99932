//! Relevance feedback — the extension the paper's conclusion plans:
//! "Traditionally, IR systems have attempted to use relevance feedback
//! over results generated by a query to refine the query. On similar
//! lines, we plan to use relevance feedback to tune the importance
//! weights assigned to an attribute." (Section 7.)
//!
//! [`FeedbackTuner`] keeps a per-attribute weight vector initialized from
//! the mined `Wimp` weights and updates it with a multiplicative-weights
//! (Hedge-style) rule on each user judgment: attributes on which a
//! *liked* answer agreed with the query gain weight, attributes on which
//! a *disliked* answer agreed lose weight — and vice versa for
//! disagreements. Re-ranking then uses the tuned weights over the same
//! mined per-attribute similarities, so no mining is redone online.

use aimq_catalog::{AttrId, ImpreciseQuery, Schema, Tuple};
use aimq_sim::SimilarityModel;

use crate::engine::{Provenance, RankedAnswer};

/// Multiplicative-weights tuner over attribute importance.
#[derive(Debug, Clone)]
pub struct FeedbackTuner {
    schema: Schema,
    weights: Vec<f64>,
    learning_rate: f64,
}

impl FeedbackTuner {
    /// Start from a similarity model's mined importance weights. Weights
    /// are kept strictly positive so no attribute can be permanently
    /// silenced by early feedback.
    pub fn new(model: &SimilarityModel, learning_rate: f64) -> Self {
        assert!(
            learning_rate > 0.0 && learning_rate < 1.0,
            "learning rate must be in (0, 1), got {learning_rate}"
        );
        let schema = model.schema().clone();
        let attrs: Vec<AttrId> = schema.attr_ids().collect();
        let mined = model.ordering().normalized_importance(&attrs);
        // Floor at 2% of uniform: feedback can reorder but not zero out.
        let floor = 0.02 / attrs.len() as f64;
        let weights = mined.iter().map(|&w| w.max(floor)).collect();
        FeedbackTuner {
            schema,
            weights: normalized(weights),
            learning_rate,
        }
    }

    /// Start from uniform weights (no mined prior).
    pub fn uniform(schema: &Schema, learning_rate: f64) -> Self {
        assert!(
            learning_rate > 0.0 && learning_rate < 1.0,
            "learning rate must be in (0, 1), got {learning_rate}"
        );
        let n = schema.arity();
        FeedbackTuner {
            schema: schema.clone(),
            weights: vec![1.0 / n as f64; n],
            learning_rate,
        }
    }

    /// Current weight of an attribute (weights over the schema sum to 1).
    #[expect(
        clippy::indexing_slicing,
        reason = "schema-sized weight vector; AttrId is in-range"
    )]
    pub fn weight(&self, attr: AttrId) -> f64 {
        self.weights[attr.index()]
    }

    /// The schema the tuner covers.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tuned similarity between query and tuple: the mined per-attribute
    /// similarities combined under the tuner's weights (renormalized over
    /// the query's bound attributes).
    pub fn similarity(
        &self,
        model: &SimilarityModel,
        query: &ImpreciseQuery,
        tuple: &Tuple,
    ) -> f64 {
        let parts = model.attribute_similarities(query, tuple);
        let total: f64 = parts.iter().map(|&(a, _)| self.weight(a)).sum();
        if total <= 0.0 {
            return 0.0;
        }
        parts.iter().map(|&(a, s)| self.weight(a) / total * s).sum()
    }

    /// Record one user judgment on an answer to `query`.
    ///
    /// Update rule (Hedge): for each bound attribute with similarity
    /// component `s ∈ [0,1]`, the *signal* is `s − 0.5` (did the answer
    /// agree or disagree with the query here?), and
    /// `w ← w · exp(±η · signal)` with `+` for relevant judgments and `−`
    /// for irrelevant ones. An attribute that repeatedly agrees on liked
    /// answers (or disagrees on disliked ones) gains importance.
    pub fn observe(
        &mut self,
        model: &SimilarityModel,
        query: &ImpreciseQuery,
        answer: &Tuple,
        relevant: bool,
    ) {
        let sign = if relevant { 1.0 } else { -1.0 };
        #[expect(
            clippy::indexing_slicing,
            reason = "schema-sized weight vector; AttrId is in-range"
        )]
        for (attr, s) in model.attribute_similarities(query, answer) {
            let signal = s - 0.5;
            self.weights[attr.index()] *= (self.learning_rate * sign * signal).exp();
        }
        self.weights = normalized(std::mem::take(&mut self.weights));
    }

    /// Re-rank an answer list under the tuned weights, descending.
    pub fn rerank(
        &self,
        model: &SimilarityModel,
        query: &ImpreciseQuery,
        answers: &[Tuple],
    ) -> Vec<RankedAnswer> {
        let mut ranked: Vec<RankedAnswer> = answers
            .iter()
            .map(|t| RankedAnswer {
                tuple: t.clone(),
                similarity: self.similarity(model, query, t),
                provenance: Provenance::External,
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.similarity
                .total_cmp(&a.similarity)
                .then_with(|| a.tuple.values().cmp(b.tuple.values()))
        });
        ranked
    }
}

fn normalized(mut weights: Vec<f64>) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        for w in &mut weights {
            *w /= total;
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AimqSystem, TrainConfig};
    use aimq_catalog::{Schema, Value};
    use aimq_storage::Relation;

    fn schema() -> Schema {
        Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .numeric("X")
            .build()
            .unwrap()
    }

    fn tuple(a: &str, b: &str, x: f64) -> Tuple {
        Tuple::new(&schema(), vec![Value::cat(a), Value::cat(b), Value::num(x)]).unwrap()
    }

    fn model() -> SimilarityModel {
        let tuples: Vec<Tuple> = (0..20)
            .map(|i| {
                tuple(
                    if i % 2 == 0 { "a1" } else { "a2" },
                    if i % 3 == 0 { "b1" } else { "b2" },
                    f64::from(i) * 10.0,
                )
            })
            .collect();
        let rel = Relation::from_tuples(schema(), &tuples).unwrap();
        AimqSystem::train(&rel, &TrainConfig::default())
            .unwrap()
            .model()
            .clone()
    }

    #[test]
    fn weights_start_normalized_and_positive() {
        let t = FeedbackTuner::new(&model(), 0.5);
        let sum: f64 = schema().attr_ids().map(|a| t.weight(a)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(schema().attr_ids().all(|a| t.weight(a) > 0.0));
    }

    #[test]
    fn relevant_agreement_boosts_an_attribute() {
        let m = model();
        let mut t = FeedbackTuner::uniform(&schema(), 0.8);
        let q = ImpreciseQuery::builder(&schema())
            .like("A", Value::cat("a1"))
            .unwrap()
            .like("B", Value::cat("b1"))
            .unwrap()
            .build()
            .unwrap();
        // Liked answer agrees on A (sim 1) but not B (sim ~0) → weight(A)
        // should grow relative to weight(B).
        let answer = tuple("a1", "b2", 50.0);
        let before = t.weight(AttrId(0)) / t.weight(AttrId(1));
        for _ in 0..5 {
            t.observe(&m, &q, &answer, true);
        }
        let after = t.weight(AttrId(0)) / t.weight(AttrId(1));
        assert!(after > before, "A/B weight ratio {before} -> {after}");
    }

    #[test]
    fn irrelevant_agreement_penalizes_an_attribute() {
        let m = model();
        let mut t = FeedbackTuner::uniform(&schema(), 0.8);
        let q = ImpreciseQuery::builder(&schema())
            .like("A", Value::cat("a1"))
            .unwrap()
            .like("B", Value::cat("b1"))
            .unwrap()
            .build()
            .unwrap();
        // Disliked answer agrees on A → A is evidently not what the user
        // cares about; its weight should fall.
        let answer = tuple("a1", "b2", 50.0);
        let before = t.weight(AttrId(0));
        t.observe(&m, &q, &answer, false);
        assert!(t.weight(AttrId(0)) < before);
    }

    #[test]
    fn weights_stay_a_distribution_under_feedback() {
        let m = model();
        let mut t = FeedbackTuner::new(&m, 0.4);
        let q = ImpreciseQuery::builder(&schema())
            .like("A", Value::cat("a1"))
            .unwrap()
            .build()
            .unwrap();
        for i in 0..50 {
            let answer = tuple(
                if i % 2 == 0 { "a1" } else { "a2" },
                "b1",
                10.0 * f64::from(i),
            );
            t.observe(&m, &q, &answer, i % 3 != 0);
            let sum: f64 = schema().attr_ids().map(|a| t.weight(a)).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(schema().attr_ids().all(|a| t.weight(a) > 0.0));
        }
    }

    #[test]
    fn rerank_orders_by_tuned_similarity() {
        let m = model();
        let mut t = FeedbackTuner::uniform(&schema(), 0.9);
        let q = ImpreciseQuery::builder(&schema())
            .like("A", Value::cat("a1"))
            .unwrap()
            .like("B", Value::cat("b1"))
            .unwrap()
            .build()
            .unwrap();
        let match_a = tuple("a1", "b2", 0.0);
        let match_b = tuple("a2", "b1", 0.0);
        // Teach the tuner that B is what matters.
        for _ in 0..8 {
            t.observe(&m, &q, &match_b, true);
            t.observe(&m, &q, &match_a, false);
        }
        let ranked = t.rerank(&m, &q, &[match_a.clone(), match_b.clone()]);
        assert_eq!(ranked[0].tuple, match_b);
        for w in ranked.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn tuned_similarity_stays_in_unit_interval() {
        let m = model();
        let t = FeedbackTuner::new(&m, 0.3);
        let q = ImpreciseQuery::builder(&schema())
            .like("A", Value::cat("a1"))
            .unwrap()
            .like("X", Value::num(50.0))
            .unwrap()
            .build()
            .unwrap();
        for i in 0..20 {
            let answer = tuple("a1", "b1", f64::from(i) * 10.0);
            let s = t.similarity(&m, &q, &answer);
            assert!((0.0..=1.0 + 1e-9).contains(&s), "sim {s}");
        }
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_learning_rate() {
        FeedbackTuner::uniform(&schema(), 1.5);
    }
}
