//! **Table 2 — Offline computation time.**
//!
//! The paper reports the offline cost of AIMQ (supertuple generation,
//! similarity estimation) against ROCK (link computation, initial
//! clustering on a 2k sub-sample, labeling of the rest) on CarDB-25k and
//! CensusDB-45k. Claim: AIMQ's total preprocessing is far cheaper because
//! its cost scales with the number of AV-pairs, not `O(n³)` in the number
//! of tuples.

use std::time::{Duration, Instant};

use aimq_afd::EncodedRelation;
use aimq_catalog::Domain;
use aimq_data::{CarDb, CensusDb};
use aimq_rock::{RockConfig, RockModel};
use aimq_sim::build_supertuples;
use aimq_storage::Relation;

use crate::experiments::common::{cardb_buckets, census_buckets, train_cardb, train_census};
use crate::{Scale, TextTable};

/// Offline timings for one dataset.
#[derive(Debug, Clone, Copy, Default)]
pub struct OfflineTimings {
    /// AIMQ: one pass building every categorical attribute's supertuples.
    pub supertuple_generation: Duration,
    /// AIMQ: full similarity-model construction (includes the pairwise
    /// Jaccard estimation the paper calls "Similarity Estimation").
    pub similarity_estimation: Duration,
    /// ROCK: neighbor + link computation over the clustering sample.
    pub rock_links: Duration,
    /// ROCK: agglomerative clustering of the sample.
    pub rock_clustering: Duration,
    /// ROCK: labeling the remaining tuples.
    pub rock_labeling: Duration,
}

impl OfflineTimings {
    /// Total AIMQ preprocessing time.
    pub fn aimq_total(&self) -> Duration {
        self.supertuple_generation + self.similarity_estimation
    }

    /// Total ROCK preprocessing time.
    pub fn rock_total(&self) -> Duration {
        self.rock_links + self.rock_clustering + self.rock_labeling
    }
}

/// Result of the Table 2 run.
#[derive(Debug, Clone, Copy)]
pub struct Table2Result {
    /// CarDB timings (paper: 25k tuples).
    pub cardb: OfflineTimings,
    /// CensusDB timings (paper: 45k tuples).
    pub census: OfflineTimings,
    /// Actual CarDB size used.
    pub cardb_size: usize,
    /// Actual CensusDB size used.
    pub census_size: usize,
    /// ROCK clustering-sample size (paper: 2k).
    pub rock_sample: usize,
}

impl Table2Result {
    /// The paper's claim on both datasets.
    pub fn aimq_cheaper(&self) -> bool {
        self.cardb.aimq_total() < self.cardb.rock_total()
            && self.census.aimq_total() < self.census.rock_total()
    }

    /// Render in the paper's layout (phases × datasets).
    pub fn render(&self) -> TextTable {
        let secs = |d: Duration| format!("{:.2}s", d.as_secs_f64());
        let mut t = TextTable::new(
            format!(
                "Table 2: offline computation time (CarDB {}k, CensusDB {}k; ROCK sample {})",
                self.cardb_size / 1000,
                self.census_size / 1000,
                self.rock_sample
            ),
            &["Phase", "CarDB", "CensusDB"],
        );
        t.row(vec![
            "AIMQ: SuperTuple Generation".into(),
            secs(self.cardb.supertuple_generation),
            secs(self.census.supertuple_generation),
        ]);
        t.row(vec![
            "AIMQ: Similarity Estimation".into(),
            secs(self.cardb.similarity_estimation),
            secs(self.census.similarity_estimation),
        ]);
        t.row(vec![
            "ROCK: Link Computation".into(),
            secs(self.cardb.rock_links),
            secs(self.census.rock_links),
        ]);
        t.row(vec![
            "ROCK: Initial Clustering".into(),
            secs(self.cardb.rock_clustering),
            secs(self.census.rock_clustering),
        ]);
        t.row(vec![
            "ROCK: Data Labeling".into(),
            secs(self.cardb.rock_labeling),
            secs(self.census.rock_labeling),
        ]);
        t.row(vec![
            "TOTAL AIMQ / ROCK".into(),
            format!(
                "{} / {}",
                secs(self.cardb.aimq_total()),
                secs(self.cardb.rock_total())
            ),
            format!(
                "{} / {}",
                secs(self.census.aimq_total()),
                secs(self.census.rock_total())
            ),
        ]);
        t
    }
}

fn time_dataset(
    relation: &Relation,
    buckets: aimq_afd::BucketConfig,
    train: impl Fn(&Relation) -> aimq::AimqSystem,
    rock_sample: usize,
    rock_theta: f64,
    seed: u64,
) -> OfflineTimings {
    // Supertuple generation, timed in isolation (the paper reports it as
    // its own phase).
    let enc = EncodedRelation::encode(relation, &buckets);
    let t0 = Instant::now();
    for attr in relation.schema().attr_ids() {
        if relation.schema().domain(attr) == Domain::Categorical {
            #[expect(
                clippy::let_underscore_untyped,
                reason = "timing loop measures generation cost; the structures are rebuilt for real below"
            )]
            let _ = build_supertuples(&enc, attr);
        }
    }
    let supertuple_generation = t0.elapsed();

    // Full similarity estimation (model build; includes a second
    // supertuple pass plus the pairwise Jaccard matrix).
    let t1 = Instant::now();
    let _system = train(relation);
    let similarity_estimation = t1.elapsed();

    let rock = RockModel::fit(
        &enc,
        RockConfig {
            theta: rock_theta,
            target_clusters: 25,
            sample_size: rock_sample,
            seed,
            min_cluster_size: 1,
        },
    );
    let rt = rock.timings();

    OfflineTimings {
        supertuple_generation,
        similarity_estimation,
        rock_links: rt.link_computation,
        rock_clustering: rt.initial_clustering,
        rock_labeling: rt.data_labeling,
    }
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Table2Result {
    let cardb = CarDb::generate(scale.size(25_000), seed);
    let (census, _classes) = CensusDb::generate(scale.censusdb(), seed.wrapping_add(1));
    let rock_sample = scale.size(2_000);

    let cardb_timings = time_dataset(
        &cardb,
        cardb_buckets(cardb.schema()),
        train_cardb,
        rock_sample,
        0.22,
        seed,
    );
    let census_timings = time_dataset(
        &census,
        census_buckets(census.schema()),
        train_census,
        rock_sample,
        0.45,
        seed,
    );

    Table2Result {
        cardb: cardb_timings,
        census: census_timings,
        cardb_size: cardb.len(),
        census_size: census.len(),
        rock_sample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Table2Result {
        run(Scale::with_divisor(100), 31)
    }

    #[test]
    fn all_phases_complete() {
        let r = result();
        // Phases finish and totals compose.
        assert!(r.cardb.aimq_total() >= r.cardb.supertuple_generation);
        assert!(r.census.rock_total() >= r.census.rock_links);
    }

    #[test]
    fn render_has_six_rows() {
        assert_eq!(result().render().len(), 6);
    }
}
