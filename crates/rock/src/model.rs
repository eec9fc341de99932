use std::time::{Duration, Instant};

use aimq_afd::EncodedRelation;
use aimq_relation::RowId;

use crate::cluster::{cluster_greedy, f_theta};
use crate::links::compute_links;
use crate::PointSet;

/// ROCK hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RockConfig {
    /// Neighbor threshold θ: two tuples are neighbors iff their Jaccard
    /// similarity is at least θ.
    pub theta: f64,
    /// Number of clusters to stop the agglomerative phase at.
    pub target_clusters: usize,
    /// Size of the sample clustered exactly; remaining tuples are labeled
    /// (the paper clusters 2k of 25k/45k, Table 2).
    pub sample_size: usize,
    /// Seed for drawing the clustering sample.
    pub seed: u64,
    /// Clusters smaller than this after the agglomerative phase are
    /// discarded as outliers (their members stay unassigned and are never
    /// labeling targets) — the ROCK paper's outlier-elimination step
    /// ("stop at a larger number of clusters and weed out small
    /// clusters"). `1` keeps everything.
    pub min_cluster_size: usize,
}

impl Default for RockConfig {
    fn default() -> Self {
        RockConfig {
            theta: 0.5,
            target_clusters: 20,
            sample_size: 2000,
            seed: 7,
            min_cluster_size: 1,
        }
    }
}

/// Wall-clock timing of the three offline ROCK phases, as reported in the
/// paper's Table 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct RockTimings {
    /// Neighbor + link computation over the sample.
    pub link_computation: Duration,
    /// Agglomerative clustering of the sample.
    pub initial_clustering: Duration,
    /// Labeling of the non-sampled tuples.
    pub data_labeling: Duration,
}

/// A fitted ROCK model over a relation: sample clusters plus a full
/// assignment of every row to a cluster (or outlier).
#[derive(Debug)]
pub struct RockModel {
    points: PointSet,
    config: RockConfig,
    /// Clusters as row ids into the *full* relation.
    clusters: Vec<Vec<RowId>>,
    /// Cluster id per row; `None` = outlier (no neighbor in any cluster).
    assignments: Vec<Option<u32>>,
    timings: RockTimings,
}

impl RockModel {
    /// Fit ROCK over an encoded relation: draw a sample, compute links,
    /// cluster, then label every remaining row.
    pub fn fit(enc: &EncodedRelation, config: RockConfig) -> Self {
        let points = PointSet::from_encoded(enc);
        let n = points.len();

        // Deterministic sample of rows for the exact clustering phase.
        let sample_rows: Vec<RowId> = sample_rows(n, config.sample_size, config.seed);

        #[expect(
            clippy::disallowed_methods,
            reason = "offline training stopwatch (RockTimings); never drives clustering"
        )]
        let t0 = Instant::now();
        let links = compute_links(&points, &sample_rows, config.theta);
        #[expect(clippy::disallowed_methods, reason = "stopwatch readout")]
        let link_computation = t0.elapsed();

        #[expect(
            clippy::disallowed_methods,
            reason = "offline training stopwatch (RockTimings); never drives clustering"
        )]
        let t1 = Instant::now();
        let clustering = cluster_greedy(
            &links,
            sample_rows.len(),
            config.theta,
            config.target_clusters,
        );
        #[expect(clippy::disallowed_methods, reason = "stopwatch readout")]
        let initial_clustering = t1.elapsed();

        // Map member indices back to relation rows, weeding out clusters
        // below the outlier threshold.
        #[expect(
            clippy::indexing_slicing,
            reason = "cluster members are indices into the sample"
        )]
        let mut clusters: Vec<Vec<RowId>> = clustering
            .clusters
            .iter()
            .filter(|c| c.len() >= config.min_cluster_size.max(1))
            .map(|c| c.iter().map(|&m| sample_rows[m as usize]).collect())
            .collect();

        // Label the remaining rows: assign to the cluster maximizing
        // N_i / (n_i + 1)^f(θ) where N_i is the number of neighbors the
        // row has inside cluster i (ROCK Section 3.4); rows with no
        // neighbors anywhere stay outliers.
        #[expect(
            clippy::disallowed_methods,
            reason = "offline training stopwatch (RockTimings); never drives clustering"
        )]
        let t2 = Instant::now();
        let mut assignments: Vec<Option<u32>> = vec![None; n];
        for (cid, members) in clusters.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "assignments is relation-sized; rows and cluster ids are minted by this build"
            )]
            for &row in members {
                assignments[row as usize] = Some(cid as u32);
            }
        }
        let ft = f_theta(config.theta);
        let in_sample: std::collections::BTreeSet<RowId> = sample_rows.iter().copied().collect();
        let mut labeled: Vec<(RowId, u32)> = Vec::new();
        for row in 0..n as RowId {
            if in_sample.contains(&row) {
                continue;
            }
            let mut best: Option<(f64, u32)> = None;
            for (cid, members) in clusters.iter().enumerate() {
                let neighbors = members
                    .iter()
                    .filter(|&&m| points.sim(row, m) >= config.theta)
                    .count();
                if neighbors == 0 {
                    continue;
                }
                let score = neighbors as f64 / ((members.len() + 1) as f64).powf(ft);
                if best.is_none_or(|(b, _)| score > b) {
                    best = Some((score, cid as u32));
                }
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "assignments is relation-sized; rows and cluster ids are minted by this build"
            )]
            if let Some((_, cid)) = best {
                assignments[row as usize] = Some(cid);
                labeled.push((row, cid));
            }
        }
        for (row, cid) in labeled {
            #[expect(
                clippy::indexing_slicing,
                reason = "assignments is relation-sized; rows and cluster ids are minted by this build"
            )]
            clusters[cid as usize].push(row);
        }
        #[expect(clippy::disallowed_methods, reason = "stopwatch readout")]
        let data_labeling = t2.elapsed();

        RockModel {
            points,
            config,
            clusters,
            assignments,
            timings: RockTimings {
                link_computation,
                initial_clustering,
                data_labeling,
            },
        }
    }

    /// The fitted clusters (row ids into the full relation).
    pub fn clusters(&self) -> &[Vec<RowId>] {
        &self.clusters
    }

    /// Cluster id of `row` (`None` for outliers).
    #[expect(
        clippy::indexing_slicing,
        reason = "assignments is relation-sized; rows and cluster ids are minted by this build"
    )]
    pub fn assignment(&self, row: RowId) -> Option<u32> {
        self.assignments[row as usize]
    }

    /// Offline phase timings (Table 2).
    pub fn timings(&self) -> RockTimings {
        self.timings
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &RockConfig {
        &self.config
    }

    /// Answer an imprecise query whose base tuple is `row`: the members of
    /// `row`'s cluster ranked by Jaccard similarity to `row`, at most `k`.
    ///
    /// This is the "query answering system that uses ROCK" of Section 6.1:
    /// clusters determine the candidate set, similarity ranks it. Outlier
    /// rows get an empty answer.
    pub fn answer(&self, row: RowId, k: usize) -> Vec<(RowId, f64)> {
        let Some(cid) = self.assignment(row) else {
            return Vec::new();
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "assignments is relation-sized; rows and cluster ids are minted by this build"
        )]
        let mut scored: Vec<(RowId, f64)> = self.clusters[cid as usize]
            .iter()
            .filter(|&&m| m != row)
            .map(|&m| (m, self.points.sim(row, m)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

/// Deterministic sample of `k` of `n` rows (Fisher–Yates prefix).
fn sample_rows(n: usize, k: usize, seed: u64) -> Vec<RowId> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rows: Vec<RowId> = (0..n as RowId).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    rows.shuffle(&mut rng);
    rows.truncate(k.min(n));
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_afd::BucketConfig;
    use aimq_catalog::{Schema, Tuple, Value};
    use aimq_relation::Relation;

    /// Two well-separated families of tuples plus one oddball.
    fn encoded() -> EncodedRelation {
        let schema = Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .categorical("C")
            .build()
            .unwrap();
        let rows = [
            // Family 1 (x-ish)
            ("x", "y", "z1"),
            ("x", "y", "z2"),
            ("x", "y", "z3"),
            ("x", "y", "z4"),
            // Family 2 (p-ish)
            ("p", "q", "r1"),
            ("p", "q", "r2"),
            ("p", "q", "r3"),
            ("p", "q", "r4"),
            // Oddball
            ("o", "o", "o"),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(a, b, c)| {
                Tuple::new(&schema, vec![Value::cat(a), Value::cat(b), Value::cat(c)]).unwrap()
            })
            .collect();
        let rel = Relation::from_tuples(schema.clone(), &tuples).unwrap();
        EncodedRelation::encode(&rel, &BucketConfig::for_schema(&schema))
    }

    fn fitted() -> RockModel {
        RockModel::fit(
            &encoded(),
            RockConfig {
                theta: 0.4,
                target_clusters: 2,
                sample_size: 6, // force labeling of the rest
                // A seed whose 6-row sample draws 3 tuples from each
                // family: two sampled family members alone can never
                // merge (no common neighbor), so a thinner sample
                // cannot exhibit the clustering this fixture exercises.
                seed: 1,
                min_cluster_size: 1,
            },
        )
    }

    #[test]
    fn families_separate_and_oddball_is_outlierish() {
        let m = fitted();
        // Rows 0-3 share a cluster; rows 4-7 share a (different) cluster.
        let c0 = m.assignment(0);
        assert!(c0.is_some());
        for r in 1..4 {
            assert_eq!(m.assignment(r), c0, "row {r}");
        }
        let c4 = m.assignment(4);
        assert!(c4.is_some());
        for r in 5..8 {
            assert_eq!(m.assignment(r), c4, "row {r}");
        }
        assert_ne!(c0, c4);
        // The oddball has no neighbors at θ=0.4 → outlier or singleton.
        let odd = m.assignment(8);
        if let Some(cid) = odd {
            assert_eq!(m.clusters()[cid as usize].len(), 1);
        }
    }

    #[test]
    fn answer_returns_cluster_members_ranked() {
        let m = fitted();
        let answers = m.answer(0, 10);
        assert!(!answers.is_empty());
        assert!(answers.len() <= 3); // own cluster minus self
                                     // All answers from the same family.
        for &(row, sim) in &answers {
            assert!((1..4).contains(&row), "row {row} not in family 1");
            assert!(sim > 0.0);
        }
        // Ranking is non-increasing.
        for w in answers.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn answer_respects_k() {
        let m = fitted();
        assert!(m.answer(0, 2).len() <= 2);
        assert!(m.answer(0, 0).is_empty());
    }

    #[test]
    fn outlier_answers_empty_or_own_singleton() {
        let m = fitted();
        let answers = m.answer(8, 5);
        assert!(answers.is_empty());
    }

    #[test]
    fn every_row_is_assigned_or_outlier() {
        let m = fitted();
        let clustered: usize = m.clusters().iter().map(Vec::len).sum();
        let outliers = (0..9).filter(|&r| m.assignment(r).is_none()).count();
        assert_eq!(clustered + outliers, 9);
    }

    #[test]
    fn timings_are_populated() {
        let m = fitted();
        // Durations exist (may be ~0 on tiny data but must not panic).
        let t = m.timings();
        let total = t.link_computation + t.initial_clustering + t.data_labeling;
        assert!(total >= t.link_computation);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = fitted();
        let b = fitted();
        assert_eq!(a.clusters(), b.clusters());
    }

    #[test]
    fn min_cluster_size_weeds_out_small_clusters() {
        // With a size-2 floor, the oddball's singleton cluster vanishes
        // and its row becomes a plain outlier.
        let m = RockModel::fit(
            &encoded(),
            RockConfig {
                theta: 0.4,
                target_clusters: 3,
                sample_size: 100,
                seed: 3,
                min_cluster_size: 2,
            },
        );
        assert!(m.clusters().iter().all(|c| c.len() >= 2));
        assert_eq!(m.assignment(8), None);
        assert!(m.answer(8, 5).is_empty());
        // The two families survive intact.
        assert_eq!(m.clusters().len(), 2);
    }

    #[test]
    fn full_sample_skips_labeling() {
        let m = RockModel::fit(
            &encoded(),
            RockConfig {
                theta: 0.4,
                target_clusters: 2,
                sample_size: 100,
                seed: 3,
                min_cluster_size: 1,
            },
        );
        let clustered: usize = m.clusters().iter().map(Vec::len).sum();
        assert_eq!(clustered, 9); // all rows clustered exactly
    }
}
