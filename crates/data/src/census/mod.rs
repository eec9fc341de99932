mod spec;

use aimq_catalog::{Schema, Tuple, Value};
use aimq_relation::Relation;
use rand::{RngExt, SeedableRng};

use spec::{education_table, occupation_table, EDU_WEIGHTS, NATIVE_COUNTRIES, RACES, WORKCLASSES};

/// Income class of a generated census record — the held-out ground truth
/// of the paper's Figure 9 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncomeClass {
    /// Yearly income above $50,000.
    Above50K,
    /// Yearly income at most $50,000.
    AtMost50K,
}

/// Generator for the synthetic UCI-Census stand-in.
pub struct CensusDb;

impl CensusDb {
    /// The paper's relation: `CensusDB(Age, Workclass, Demographic-weight,
    /// Education, Marital-Status, Occupation, Relationship, Race, Sex,
    /// Capital-gain, Capital-loss, Hours-per-week, Native-Country)`.
    /// As in the paper, `Age`, `Demographic-weight`, `Capital-gain`,
    /// `Capital-loss` and `Hours-per-week` are numeric; the other eight
    /// are categorical.
    pub fn schema() -> Schema {
        Schema::builder("CensusDB")
            .numeric("Age")
            .categorical("Workclass")
            .numeric("Demographic-weight")
            .categorical("Education")
            .categorical("Marital-Status")
            .categorical("Occupation")
            .categorical("Relationship")
            .categorical("Race")
            .categorical("Sex")
            .numeric("Capital-gain")
            .numeric("Capital-loss")
            .numeric("Hours-per-week")
            .categorical("Native-Country")
            .build()
            .expect("static schema is valid")
    }

    /// Generate `n` records plus their (hidden) income classes.
    ///
    /// The class is a noisy threshold on a latent earning score driven by
    /// education, occupation, age, hours worked and capital gains — so
    /// records with the same class genuinely cluster in attribute space,
    /// which is the property the Figure 9 accuracy metric measures.
    pub fn generate(n: usize, seed: u64) -> (Relation, Vec<IncomeClass>) {
        let schema = Self::schema();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut builder = Relation::builder(schema.clone());
        let mut classes = Vec::with_capacity(n);

        for _ in 0..n {
            let (tuple, class) = Self::generate_record(&schema, &mut rng);
            builder
                .push(&tuple)
                .expect("generated tuple matches schema");
            classes.push(class);
        }
        (builder.build(), classes)
    }

    fn generate_record(schema: &Schema, rng: &mut rand::rngs::StdRng) -> (Tuple, IncomeClass) {
        // Education first: it anchors the latent earning score.
        let edu_idx = weighted_index(EDU_WEIGHTS, rng);
        let (education, edu_score) = education_table()[edu_idx];

        // Occupation skews white-collar for higher education.
        let occupations = occupation_table();
        let occ_idx = {
            let weights: Vec<f64> = occupations
                .iter()
                .map(|&(_, occ_score)| {
                    // Affinity: matching scores multiply the weight.
                    let affinity = 1.0 - (occ_score - edu_score).abs();
                    (0.15 + affinity.max(0.0)).powi(2)
                })
                .collect();
            weighted_index_f(&weights, rng)
        };
        let (occupation, occ_score) = occupations[occ_idx];

        let age = 17.0 + 63.0 * rng.random::<f64>().powf(1.3);
        let age = age.round();
        // Peak earning years around 35-55.
        let age_factor = 1.0 - ((age - 45.0) / 30.0).abs().min(1.0);

        let hours = (28.0 + 30.0 * occ_score + 12.0 * rng.random::<f64>() - 6.0)
            .clamp(5.0, 99.0)
            .round();
        let hours_factor = ((hours - 30.0) / 40.0).clamp(0.0, 1.0);

        let workclass = WORKCLASSES[weighted_index(&[60.0, 8.0, 4.0, 4.0, 5.0, 6.0], rng)];
        let workclass_bonus = match workclass {
            "Self-emp-inc" => 0.25,
            "Federal-gov" => 0.12,
            _ => 0.0,
        };

        let sex = if rng.random::<f64>() < 0.52 {
            "Male"
        } else {
            "Female"
        };
        let marital = pick_marital(age, rng);
        let relationship = pick_relationship(marital, sex, rng);
        let race = RACES[weighted_index(&[78.0, 10.0, 4.0, 1.0, 7.0], rng)];
        let native = NATIVE_COUNTRIES
            [weighted_index(&[85.0, 3.0, 2.0, 1.5, 1.5, 1.5, 1.2, 1.2, 1.1, 2.0], rng)];

        // Latent earning score (before capital income).
        let base_score = 1.1 * edu_score
            + 1.0 * occ_score
            + 0.5 * age_factor
            + 0.6 * hours_factor
            + workclass_bonus
            + if marital == "Married-civ-spouse" {
                0.2
            } else {
                0.0
            };

        // Capital gains concentrate among high earners.
        let gain_prob = 0.02 + 0.12 * (base_score / 3.0).clamp(0.0, 1.0);
        let capital_gain = if rng.random::<f64>() < gain_prob {
            (1000.0 + 20000.0 * rng.random::<f64>().powi(2)).round()
        } else {
            0.0
        };
        let capital_loss = if rng.random::<f64>() < 0.04 {
            (500.0 + 2500.0 * rng.random::<f64>()).round()
        } else {
            0.0
        };

        let demographic_weight = (20_000.0 + 280_000.0 * rng.random::<f64>()).round();

        let score =
            base_score + if capital_gain > 5000.0 { 0.8 } else { 0.0 } + 0.35 * normalish(rng);
        let class = if score > 2.05 {
            IncomeClass::Above50K
        } else {
            IncomeClass::AtMost50K
        };

        let tuple = Tuple::new(
            schema,
            vec![
                Value::num(age),
                Value::cat(workclass),
                Value::num(demographic_weight),
                Value::cat(education),
                Value::cat(marital),
                Value::cat(occupation),
                Value::cat(relationship),
                Value::cat(race),
                Value::cat(sex),
                Value::num(capital_gain),
                Value::num(capital_loss),
                Value::num(hours),
                Value::cat(native),
            ],
        )
        .expect("generator respects schema domains");
        (tuple, class)
    }
}

fn pick_marital(age: f64, rng: &mut rand::rngs::StdRng) -> &'static str {
    let married_prob = ((age - 20.0) / 25.0).clamp(0.05, 0.65);
    let u: f64 = rng.random();
    if u < married_prob {
        "Married-civ-spouse"
    } else if u < married_prob + 0.08 && age > 30.0 {
        "Divorced"
    } else if u < married_prob + 0.11 && age > 50.0 {
        "Widowed"
    } else if u < married_prob + 0.13 {
        "Separated"
    } else {
        "Never-married"
    }
}

fn pick_relationship(marital: &str, sex: &str, rng: &mut rand::rngs::StdRng) -> &'static str {
    match marital {
        "Married-civ-spouse" => {
            if sex == "Male" {
                "Husband"
            } else {
                "Wife"
            }
        }
        _ => {
            let u: f64 = rng.random();
            if u < 0.4 {
                "Not-in-family"
            } else if u < 0.7 {
                "Own-child"
            } else if u < 0.9 {
                "Unmarried"
            } else {
                "Other-relative"
            }
        }
    }
}

/// Rough standard normal via the sum of uniforms (Irwin–Hall with n=6).
fn normalish(rng: &mut rand::rngs::StdRng) -> f64 {
    let sum: f64 = (0..6).map(|_| rng.random::<f64>()).sum();
    (sum - 3.0) / f64::sqrt(0.5)
}

fn weighted_index(weights: &[f64], rng: &mut rand::rngs::StdRng) -> usize {
    weighted_index_f(weights, rng)
}

fn weighted_index_f(weights: &[f64], rng: &mut rand::rngs::StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::AttrId;

    #[test]
    fn schema_matches_paper() {
        let s = CensusDb::schema();
        assert_eq!(s.arity(), 13);
        assert_eq!(s.numeric_attrs().len(), 5);
        assert_eq!(s.categorical_attrs().len(), 8);
        assert_eq!(s.attr_name(AttrId(0)), "Age");
        assert_eq!(s.attr_name(AttrId(12)), "Native-Country");
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, ca) = CensusDb::generate(300, 5);
        let (b, cb) = CensusDb::generate(300, 5);
        assert_eq!(
            a.tuples().collect::<Vec<_>>(),
            b.tuples().collect::<Vec<_>>()
        );
        assert_eq!(ca, cb);
    }

    #[test]
    fn class_balance_is_plausible() {
        let (_, classes) = CensusDb::generate(10_000, 3);
        let positive = classes
            .iter()
            .filter(|&&c| c == IncomeClass::Above50K)
            .count();
        let rate = positive as f64 / classes.len() as f64;
        // UCI Adult is ~24% positive; accept a broad band.
        assert!((0.10..=0.45).contains(&rate), "positive rate {rate}");
    }

    #[test]
    fn education_correlates_with_income() {
        let (rel, classes) = CensusDb::generate(20_000, 3);
        let edu_attr = rel.schema().attr_id("Education").unwrap();
        let rate_for = |edus: &[&str]| {
            let mut pos = 0usize;
            let mut tot = 0usize;
            for (row, class) in rel.rows().zip(&classes) {
                let e = rel.value(row, edu_attr);
                if edus.iter().any(|&x| e.as_cat() == Some(x)) {
                    tot += 1;
                    pos += usize::from(*class == IncomeClass::Above50K);
                }
            }
            pos as f64 / tot.max(1) as f64
        };
        let high = rate_for(&["Masters", "Doctorate", "Prof-school"]);
        let low = rate_for(&["9th", "11th", "HS-grad"]);
        assert!(
            high > low + 0.2,
            "advanced degrees ({high:.2}) should out-earn HS ({low:.2})"
        );
    }

    #[test]
    fn hours_correlate_with_income() {
        let (rel, classes) = CensusDb::generate(20_000, 4);
        let hours_attr = rel.schema().attr_id("Hours-per-week").unwrap();
        let mut hi = (0.0, 0usize);
        let mut lo = (0.0, 0usize);
        for (row, class) in rel.rows().zip(&classes) {
            let h = rel.value(row, hours_attr).as_num().unwrap();
            if *class == IncomeClass::Above50K {
                hi = (hi.0 + h, hi.1 + 1);
            } else {
                lo = (lo.0 + h, lo.1 + 1);
            }
        }
        assert!(hi.0 / hi.1 as f64 > lo.0 / lo.1 as f64 + 2.0);
    }

    #[test]
    fn values_are_in_range() {
        let (rel, _) = CensusDb::generate(2000, 9);
        let s = rel.schema().clone();
        for t in rel.tuples() {
            let age = t.value(s.attr_id("Age").unwrap()).as_num().unwrap();
            assert!((17.0..=85.0).contains(&age));
            let hours = t
                .value(s.attr_id("Hours-per-week").unwrap())
                .as_num()
                .unwrap();
            assert!((5.0..=99.0).contains(&hours));
            let gain = t
                .value(s.attr_id("Capital-gain").unwrap())
                .as_num()
                .unwrap();
            assert!((0.0..=30_000.0).contains(&gain));
        }
    }

    #[test]
    fn married_men_are_husbands() {
        let (rel, _) = CensusDb::generate(3000, 2);
        let s = rel.schema().clone();
        for t in rel.tuples() {
            let marital = t.value(s.attr_id("Marital-Status").unwrap());
            let sex = t.value(s.attr_id("Sex").unwrap());
            let relationship = t.value(s.attr_id("Relationship").unwrap());
            if marital.as_cat() == Some("Married-civ-spouse") {
                let expected = if sex.as_cat() == Some("Male") {
                    "Husband"
                } else {
                    "Wife"
                };
                assert_eq!(relationship.as_cat(), Some(expected));
            }
        }
    }
}
