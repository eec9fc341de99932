use std::fmt;
use std::time::{Duration, Instant};

use aimq_afd::{
    AttributeOrdering, BucketConfig, EncodedRelation, MinedDependencies, OrderingError, TaneConfig,
};
use aimq_catalog::{AttrId, ImpreciseQuery};
use aimq_sim::{SimConfig, SimilarityModel};
use aimq_storage::{probe_by_spanning_queries, ProbeError, Relation, WebDatabase};

use crate::engine::{answer_imprecise_query, AnswerSet, EngineConfig};
use crate::{GuidedRelax, RelaxationStrategy};

/// Errors raised while assembling an [`AimqSystem`].
#[derive(Debug)]
pub enum AimqError {
    /// The training sample was empty.
    EmptySample,
    /// Attribute ordering failed (empty schema etc.).
    Ordering(OrderingError),
    /// Probing the source failed — either a catalog mismatch or a source
    /// failure that survived the client-side resilience policy. Training
    /// never proceeds on a silently short sample.
    Probe(ProbeError),
}

impl fmt::Display for AimqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AimqError::EmptySample => write!(f, "training sample is empty"),
            AimqError::Ordering(e) => write!(f, "attribute ordering failed: {e}"),
            AimqError::Probe(e) => write!(f, "probing failed: {e}"),
        }
    }
}

impl std::error::Error for AimqError {}

impl From<OrderingError> for AimqError {
    fn from(e: OrderingError) -> Self {
        AimqError::Ordering(e)
    }
}

impl From<ProbeError> for AimqError {
    fn from(e: ProbeError) -> Self {
        AimqError::Probe(e)
    }
}

/// Offline training configuration (Dependency Miner + Similarity Miner).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// TANE parameters (error threshold `Terr`, lattice caps).
    pub tane: TaneConfig,
    /// Numeric bucketing shared by AFD mining and supertuple bags; `None`
    /// uses per-schema defaults.
    pub bucket: Option<BucketConfig>,
    /// Laplace smoothing of Algorithm 2's weight shares (0 = the paper's
    /// exact formula; attributes with no AFD evidence then get zero
    /// importance).
    pub smoothing: f64,
    /// Skip Algorithm 2 and give every attribute equal importance — the
    /// model the paper attributes to RandomRelax and ROCK ("give equal
    /// importance to all the attributes", Section 6.4). AFDs are still
    /// mined for reporting.
    pub use_uniform_importance: bool,
    /// Mine the per-attribute similarity matrices on worker threads
    /// (bit-identical results; helps when one attribute has many distinct
    /// values).
    pub parallel_similarity: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            tane: TaneConfig::default(),
            bucket: None,
            smoothing: 0.0,
            use_uniform_importance: false,
            parallel_similarity: false,
        }
    }
}

/// Wall-clock timing of AIMQ's two offline phases (Table 2's AIMQ rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainTimings {
    /// Dependency mining + attribute ordering.
    pub dependency_mining: Duration,
    /// Supertuple generation + pairwise value-similarity estimation.
    pub similarity_estimation: Duration,
}

/// The assembled AIMQ system of the paper's Figure 1: mined dependencies,
/// attribute ordering, value-similarity model and query engine.
#[derive(Debug, Clone)]
pub struct AimqSystem {
    mined: MinedDependencies,
    ordering: AttributeOrdering,
    model: SimilarityModel,
    timings: TrainTimings,
}

impl AimqSystem {
    /// Train from an already-collected sample relation (the paper's
    /// robustness experiments feed samples of several sizes).
    pub fn train(sample: &Relation, config: &TrainConfig) -> Result<Self, AimqError> {
        if sample.is_empty() {
            return Err(AimqError::EmptySample);
        }
        let schema = sample.schema().clone();
        let bucket = config
            .bucket
            .clone()
            .unwrap_or_else(|| BucketConfig::for_schema(&schema));

        #[expect(
            clippy::disallowed_methods,
            reason = "offline training timing (paper Table 2); never drives query-time decisions"
        )]
        let t0 = Instant::now();
        let enc = EncodedRelation::encode(sample, &bucket);
        let mined = MinedDependencies::mine(&enc, &config.tane);
        let ordering = if config.use_uniform_importance {
            AttributeOrdering::uniform(&schema)?
        } else {
            AttributeOrdering::derive_with_smoothing(&schema, &mined, config.smoothing)?
        };
        #[expect(clippy::disallowed_methods, reason = "stopwatch readout")]
        let dependency_mining = t0.elapsed();

        #[expect(
            clippy::disallowed_methods,
            reason = "offline training timing (paper Table 2); never drives query-time decisions"
        )]
        let t1 = Instant::now();
        let sim_config = SimConfig { bucket };
        let model = if config.parallel_similarity {
            SimilarityModel::build_parallel(sample, &ordering, &sim_config)
        } else {
            SimilarityModel::build(sample, &ordering, &sim_config)
        };
        #[expect(clippy::disallowed_methods, reason = "stopwatch readout")]
        let similarity_estimation = t1.elapsed();

        Ok(AimqSystem {
            mined,
            ordering,
            model,
            timings: TrainTimings {
                dependency_mining,
                similarity_estimation,
            },
        })
    }

    /// Assemble a system from externally built parts — e.g. an ordering
    /// from a query log ([`AttributeOrdering::from_query_log`]) paired
    /// with a similarity model mined under it.
    pub fn from_parts(
        mined: MinedDependencies,
        ordering: AttributeOrdering,
        model: SimilarityModel,
    ) -> Self {
        AimqSystem {
            mined,
            ordering,
            model,
            timings: TrainTimings::default(),
        }
    }

    /// Probe an autonomous source through its boolean interface (the Data
    /// Collector of Figure 1) and train on the probed sample.
    pub fn probe_and_train(
        db: &dyn WebDatabase,
        spanning_attr: AttrId,
        spanning_values: &[String],
        sample_target: usize,
        seed: u64,
        config: &TrainConfig,
    ) -> Result<Self, AimqError> {
        let sample =
            probe_by_spanning_queries(db, spanning_attr, spanning_values, sample_target, seed)
                .map_err(AimqError::Probe)?;
        Self::train(&sample, config)
    }

    /// Answer an imprecise query with the default `GuidedRelax` strategy.
    pub fn answer(
        &self,
        db: &dyn WebDatabase,
        query: &ImpreciseQuery,
        config: &EngineConfig,
    ) -> AnswerSet {
        let mut strategy = GuidedRelax::new(self.ordering.clone());
        self.answer_with_strategy(db, query, config, &mut strategy)
    }

    /// Answer with an explicit relaxation strategy (the evaluation harness
    /// swaps in `RandomRelax` here).
    pub fn answer_with_strategy(
        &self,
        db: &dyn WebDatabase,
        query: &ImpreciseQuery,
        config: &EngineConfig,
        strategy: &mut dyn RelaxationStrategy,
    ) -> AnswerSet {
        answer_imprecise_query(db, query, &self.model, strategy, config)
    }

    /// The mined AFDs and approximate keys.
    pub fn mined(&self) -> &MinedDependencies {
        &self.mined
    }

    /// The Algorithm-2 attribute ordering.
    pub fn ordering(&self) -> &AttributeOrdering {
        &self.ordering
    }

    /// The mined value-similarity model.
    pub fn model(&self) -> &SimilarityModel {
        &self.model
    }

    /// Offline phase timings.
    pub fn timings(&self) -> TrainTimings {
        self.timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomRelax;
    use aimq_catalog::{Schema, Tuple, Value};
    use aimq_storage::{InMemoryWebDb, Relation};

    fn car_schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .categorical("Year")
            .numeric("Price")
            .categorical("Color")
            .build()
            .unwrap()
    }

    fn car(make: &str, model: &str, year: i32, price: f64, color: &str) -> Tuple {
        Tuple::new(
            &car_schema(),
            vec![
                Value::cat(make),
                Value::cat(model),
                Value::cat(year.to_string()),
                Value::num(price),
                Value::cat(color),
            ],
        )
        .unwrap()
    }

    /// A corpus rich enough for co-occurrence mining: Camry and Accord
    /// interleave across the same years/prices/colors; Corolla and Civic
    /// form a cheaper cluster; F150s sit far away in price.
    fn test_db() -> InMemoryWebDb {
        let colors = ["White", "Black", "Silver"];
        let mut tuples = Vec::new();
        for i in 0..8i32 {
            let year = 1998 + (i % 6);
            let color = colors[(i % 3) as usize];
            tuples.push(car(
                "Toyota",
                "Camry",
                year,
                8200.0 + 250.0 * f64::from(i),
                color,
            ));
            tuples.push(car(
                "Honda",
                "Accord",
                year,
                8350.0 + 250.0 * f64::from(i),
                color,
            ));
        }
        for i in 0..4i32 {
            let year = 1999 + i;
            tuples.push(car(
                "Toyota",
                "Corolla",
                year,
                6600.0 + 200.0 * f64::from(i),
                colors[(i % 3) as usize],
            ));
            tuples.push(car(
                "Honda",
                "Civic",
                year,
                6500.0 + 200.0 * f64::from(i),
                colors[((i + 1) % 3) as usize],
            ));
        }
        for i in 0..6i32 {
            tuples.push(car(
                "Ford",
                "F150",
                2000 + (i % 4),
                24000.0 + 500.0 * f64::from(i),
                "Red",
            ));
        }
        InMemoryWebDb::new(Relation::from_tuples(car_schema(), &tuples).unwrap())
    }

    fn trained(db: &InMemoryWebDb) -> AimqSystem {
        AimqSystem::train(db.relation(), &TrainConfig::default()).unwrap()
    }

    /// Trained with uniform importance — robust on tiny corpora where the
    /// mined weights are degenerate.
    fn trained_uniform(db: &InMemoryWebDb) -> AimqSystem {
        AimqSystem::train(
            db.relation(),
            &TrainConfig {
                use_uniform_importance: true,
                ..TrainConfig::default()
            },
        )
        .unwrap()
    }

    fn camry_query() -> ImpreciseQuery {
        ImpreciseQuery::builder(&car_schema())
            .like("Model", Value::cat("Camry"))
            .unwrap()
            .like("Price", Value::num(9000.0))
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_answers_are_ranked_and_relevant() {
        let db = test_db();
        let system = trained(&db);
        let result = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.5,
                top_k: 10,
                ..EngineConfig::default()
            },
        );
        assert!(!result.answers.is_empty());
        for w in result.answers.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
        // The top answer should be a sedan near the asked price, never a
        // truck.
        let top = &result.answers[0].tuple;
        assert_ne!(top.value(AttrId(1)).as_cat(), Some("F150"));
    }

    #[test]
    fn paper_scenario_returns_similar_model_beyond_exact_matches() {
        let db = test_db();
        let system = trained_uniform(&db);
        let result = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.3,
                top_k: 40,
                max_relax_level: 2,
                ..EngineConfig::default()
            },
        );
        let models: Vec<&str> = result
            .answers
            .iter()
            .filter_map(|a| a.tuple.value(AttrId(1)).as_cat())
            .collect();
        assert!(models.contains(&"Camry"));
        assert!(
            models.contains(&"Accord"),
            "Accords priced ~9k should surface: {models:?}"
        );
        // And Camrys (exact model match) should outrank the best Accord.
        let first_camry = models.iter().position(|&m| m == "Camry").unwrap();
        let first_accord = models.iter().position(|&m| m == "Accord").unwrap();
        assert!(first_camry < first_accord);
    }

    #[test]
    fn make_is_more_dependent_than_model() {
        // Model → Make holds exactly, so Make accumulates more dependence
        // weight than Model — the Figure 3 claim ("Model is the least
        // dependent ... while Make is the most dependent").
        let db = test_db();
        let system = trained(&db);
        let ord = system.ordering();
        assert!(ord.wt_depends(AttrId(0)) > ord.wt_depends(AttrId(1)));
    }

    #[test]
    fn stats_meter_the_work() {
        let db = test_db();
        let system = trained(&db);
        db.reset_stats();
        let result = system.answer(&db, &camry_query(), &EngineConfig::default());
        assert!(result.stats.queries_issued > 0);
        assert!(result.stats.tuples_extracted > 0);
        assert_eq!(db.stats().queries_issued, result.stats.queries_issued);
    }

    #[test]
    fn top_k_truncates() {
        let db = test_db();
        let system = trained_uniform(&db);
        let result = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.2,
                top_k: 3,
                ..EngineConfig::default()
            },
        );
        assert!(result.answers.len() <= 3);
    }

    #[test]
    fn target_relevant_stops_early() {
        let db = test_db();
        let system = trained_uniform(&db);
        let capped = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.2,
                target_relevant: Some(2),
                ..EngineConfig::default()
            },
        );
        // target counts only tuples found beyond the base set; base
        // tuples are relevant by construction on top of it.
        assert!(capped.stats.relevant_found <= 2 + capped.base_set_size);
        let uncapped = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.2,
                target_relevant: None,
                ..EngineConfig::default()
            },
        );
        assert!(uncapped.stats.tuples_extracted >= capped.stats.tuples_extracted);
    }

    #[test]
    fn random_strategy_also_works() {
        let db = test_db();
        let system = trained_uniform(&db);
        let mut random = RandomRelax::new(3);
        let result = system.answer_with_strategy(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.3,
                ..EngineConfig::default()
            },
            &mut random,
        );
        assert!(!result.answers.is_empty());
    }

    #[test]
    fn no_duplicate_answers() {
        let db = test_db();
        let system = trained_uniform(&db);
        let result = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.2,
                top_k: 100,
                ..EngineConfig::default()
            },
        );
        let mut tuples: Vec<_> = result.answers.iter().map(|a| &a.tuple).collect();
        let before = tuples.len();
        tuples.sort_by_key(|t| format!("{t:?}"));
        tuples.dedup();
        assert_eq!(tuples.len(), before);
    }

    #[test]
    fn similarities_within_unit_interval() {
        let db = test_db();
        let system = trained_uniform(&db);
        let result = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.2,
                top_k: 100,
                ..EngineConfig::default()
            },
        );
        for a in &result.answers {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&a.similarity),
                "similarity {}",
                a.similarity
            );
        }
    }

    #[test]
    fn smoothing_gives_every_attribute_some_importance() {
        let db = test_db();
        let smoothed = AimqSystem::train(
            db.relation(),
            &TrainConfig {
                smoothing: 0.1,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        for a in car_schema().attr_ids() {
            assert!(
                smoothed.ordering().importance(a) > 0.0,
                "attr {a} has zero importance despite smoothing"
            );
        }
    }

    #[test]
    fn empty_sample_is_error() {
        let empty = Relation::builder(car_schema()).build();
        assert!(matches!(
            AimqSystem::train(&empty, &TrainConfig::default()),
            Err(AimqError::EmptySample)
        ));
    }

    #[test]
    fn probe_and_train_goes_through_web_interface() {
        let db = test_db();
        db.reset_stats();
        let makes: Vec<String> = ["Toyota", "Honda", "Ford"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let system =
            AimqSystem::probe_and_train(&db, AttrId(0), &makes, 1000, 1, &TrainConfig::default())
                .unwrap();
        assert!(db.stats().queries_issued >= 3);
        let result = system.answer(&db, &camry_query(), &EngineConfig::default());
        assert!(!result.answers.is_empty());
    }

    #[test]
    fn provenance_explains_each_answer() {
        use crate::Provenance;
        let db = test_db();
        let system = trained_uniform(&db);
        let result = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.3,
                top_k: 40,
                ..EngineConfig::default()
            },
        );
        let mut saw_base = false;
        let mut saw_relaxed = false;
        for a in &result.answers {
            match &a.provenance {
                Provenance::BaseSet => {
                    saw_base = true;
                    assert!(result.base_query.matches(&a.tuple));
                }
                Provenance::Relaxed {
                    base_index,
                    relaxed_attrs,
                } => {
                    saw_relaxed = true;
                    assert!(*base_index < result.base_set_size);
                    assert!(!relaxed_attrs.is_empty());
                }
                Provenance::External => panic!("engine never emits External"),
            }
        }
        assert!(saw_base, "base-set answers must be present");
        assert!(saw_relaxed, "relaxation answers expected at low Tsim");
    }

    #[test]
    fn timings_are_recorded() {
        let db = test_db();
        let system = trained(&db);
        let t = system.timings();
        let total = t.dependency_mining + t.similarity_estimation;
        assert!(total >= t.dependency_mining && total >= t.similarity_estimation);
    }

    #[test]
    fn fault_free_answer_reports_full_completeness() {
        use crate::Completeness;
        let db = test_db();
        let system = trained_uniform(&db);
        let result = system.answer(&db, &camry_query(), &EngineConfig::default());
        assert_eq!(result.degradation.completeness, Completeness::Full);
        assert!(!result.degradation.is_degraded());
        assert_eq!(result.degradation.probes_failed, 0);
        assert_eq!(result.degradation.probes_skipped, 0);
    }

    #[test]
    fn flaky_source_behind_retries_still_answers() {
        use crate::Completeness;
        use aimq_storage::{FaultInjectingWebDb, FaultProfile, ResilientWebDb, RetryPolicy};
        let clean = test_db();
        let system = trained_uniform(&clean);
        let expected = system.answer(&clean, &camry_query(), &EngineConfig::default());

        let faulty = FaultInjectingWebDb::new(test_db(), FaultProfile::flaky(), 7);
        let resilient = ResilientWebDb::new(faulty, RetryPolicy::default());
        let result = system.answer(&resilient, &camry_query(), &EngineConfig::default());

        // Retries absorb 10% transient faults completely: identical
        // answers, and the engine saw no failures (Full), only the meter
        // shows the churn.
        assert_eq!(result.degradation.completeness, Completeness::Full);
        let tuples = |r: &AnswerSet| -> Vec<String> {
            r.answers.iter().map(|a| format!("{:?}", a.tuple)).collect()
        };
        assert_eq!(tuples(&result), tuples(&expected));
    }

    #[test]
    fn dead_source_yields_marked_empty_never_a_panic() {
        use crate::Completeness;
        use aimq_storage::{FaultInjectingWebDb, FaultProfile};
        let db = FaultInjectingWebDb::new(
            test_db(),
            FaultProfile {
                unavailable_probability: 1.0,
                ..FaultProfile::none()
            },
            1,
        );
        let system = trained_uniform(&test_db());
        let result = system.answer(&db, &camry_query(), &EngineConfig::default());
        assert!(result.answers.is_empty());
        assert_eq!(result.degradation.completeness, Completeness::Empty);
        assert!(result.degradation.source_lost);
        assert!(result.degradation.probes_failed >= 1);
    }

    #[test]
    fn truncating_source_is_partial_not_silent() {
        use crate::Completeness;
        let db = test_db().with_result_limit(3);
        let system = trained_uniform(&test_db());
        let result = system.answer(
            &db,
            &camry_query(),
            &EngineConfig {
                t_sim: 0.3,
                ..EngineConfig::default()
            },
        );
        assert!(result.degradation.truncated_pages > 0);
        assert!(!result.answers.is_empty());
        assert_eq!(result.degradation.completeness, Completeness::Partial);
    }

    #[test]
    fn mid_query_source_loss_accounts_abandoned_plan() {
        use crate::Completeness;
        use aimq_storage::{FaultInjectingWebDb, FaultProfile};
        // Die hard on roughly every second probe: the first Unavailable
        // abandons the remaining plan, which must be visible as skipped
        // probes / abandoned levels rather than vanish.
        let db = FaultInjectingWebDb::new(
            test_db(),
            FaultProfile {
                unavailable_probability: 0.5,
                ..FaultProfile::none()
            },
            5,
        );
        let system = trained_uniform(&test_db());
        let result = system.answer(&db, &camry_query(), &EngineConfig::default());
        assert!(result.degradation.source_lost);
        assert_ne!(result.degradation.completeness, Completeness::Full);
        if result.base_set_size > 0 {
            assert!(
                result.degradation.probes_skipped > 0
                    || result.degradation.levels_abandoned > 0
                    || result.degradation.probes_failed > 0
            );
        }
    }
}
