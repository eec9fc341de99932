//! Run-to-run determinism regression for the mining stack.
//!
//! The paper's offline phase (AFD mining → attribute ordering →
//! supertuple bags → value-similarity matrices, plus the ROCK baseline)
//! must be a pure function of `(data, seed)`: two fits over the same
//! sampled CarDB have to produce byte-identical orderings and top-k
//! lists. clippy's `disallowed_types` ban on `HashMap`/`HashSet`,
//! denied at the determinism crate roots, keeps iteration-order hazards
//! out of `afd`/`sim`/`rock` at the source level; this test pins the
//! property at the output level so any future hole (a new hash
//! container behind an `#[expect]`, an unstable sort) still fails CI.

use aimq_suite::afd::{
    AttributeOrdering, BucketConfig, EncodedRelation, MinedDependencies, TaneConfig,
};
use aimq_suite::catalog::Domain;
use aimq_suite::data::CarDb;
use aimq_suite::rock::{RockConfig, RockModel};
use aimq_suite::sim::{build_supertuples, SimConfig, SimilarityModel};
use aimq_suite::storage::Relation;

/// One shared corpus: a 300-row simple random sample of a 600-row CarDB,
/// rebuilt from scratch per pass so nothing is accidentally shared.
fn sampled_cardb() -> Relation {
    CarDb::generate(600, 17).random_sample(300, 5)
}

fn mined(rel: &Relation) -> (EncodedRelation, MinedDependencies) {
    let enc = EncodedRelation::encode(rel, &BucketConfig::for_schema(rel.schema()));
    let mined = MinedDependencies::mine(&enc, &TaneConfig::default());
    (enc, mined)
}

#[test]
fn afd_mining_and_ordering_are_run_deterministic() {
    let (rel_a, rel_b) = (sampled_cardb(), sampled_cardb());
    let (_, mined_a) = mined(&rel_a);
    let (_, mined_b) = mined(&rel_b);

    // Byte-identical AFD and key lists, not merely set-equal.
    assert_eq!(
        format!("{:?}", mined_a.afds()),
        format!("{:?}", mined_b.afds())
    );
    assert_eq!(
        format!("{:?}", mined_a.keys()),
        format!("{:?}", mined_b.keys())
    );

    let ord_a = AttributeOrdering::derive(rel_a.schema(), &mined_a).unwrap();
    let ord_b = AttributeOrdering::derive(rel_b.schema(), &mined_b).unwrap();
    assert_eq!(ord_a.relaxation_order(), ord_b.relaxation_order());
    for attr in rel_a.schema().attr_ids() {
        // Bit-identical weights: same additions in the same order.
        assert_eq!(
            ord_a.importance(attr).to_bits(),
            ord_b.importance(attr).to_bits(),
            "importance of attr {attr:?} differs between runs"
        );
    }
}

#[test]
fn supertuple_bags_are_run_deterministic() {
    let (rel_a, rel_b) = (sampled_cardb(), sampled_cardb());
    let (enc_a, _) = mined(&rel_a);
    let (enc_b, _) = mined(&rel_b);
    for attr in rel_a.schema().attr_ids() {
        if rel_a.schema().domain(attr) != Domain::Categorical {
            continue;
        }
        let sup_a = build_supertuples(&enc_a, attr);
        let sup_b = build_supertuples(&enc_b, attr);
        assert_eq!(
            format!("{sup_a:?}"),
            format!("{sup_b:?}"),
            "supertuples of attr {attr:?} differ between runs"
        );
    }
}

#[test]
fn similarity_top_k_is_run_deterministic() {
    fn top_lists(rel: &Relation) -> Vec<String> {
        let (_, mined) = mined(rel);
        let ordering = AttributeOrdering::derive(rel.schema(), &mined).unwrap();
        let model = SimilarityModel::build(rel, &ordering, &SimConfig::for_schema(rel.schema()));
        let mut out = Vec::new();
        for attr in rel.schema().attr_ids() {
            let Some(matrix) = model.matrix(attr) else {
                continue;
            };
            for value in matrix.values() {
                out.push(format!("{value}: {:?}", matrix.top_similar(value, 5)));
            }
        }
        out
    }
    let (rel_a, rel_b) = (sampled_cardb(), sampled_cardb());
    assert_eq!(top_lists(&rel_a), top_lists(&rel_b));
}

#[test]
fn rock_fit_is_run_deterministic() {
    fn fit(rel: &Relation) -> RockModel {
        let (enc, _) = mined(rel);
        RockModel::fit(
            &enc,
            RockConfig {
                theta: 0.35,
                target_clusters: 8,
                sample_size: 150,
                seed: 5,
                min_cluster_size: 1,
            },
        )
    }
    let (rel_a, rel_b) = (sampled_cardb(), sampled_cardb());
    let (a, b) = (fit(&rel_a), fit(&rel_b));
    assert_eq!(a.clusters(), b.clusters());
    // Ranked answers (the user-visible top-k) must match too.
    for row in 0u32..20 {
        assert_eq!(
            format!("{:?}", a.answer(row, 10)),
            format!("{:?}", b.answer(row, 10)),
            "answer for row {row} differs between runs"
        );
    }
}

/// The schemas driving everything above must agree between passes — a
/// canary for nondeterminism in the generator itself, which would mask
/// (or fake) failures in the tests above.
#[test]
fn generator_is_seed_deterministic() {
    fn fingerprint(rel: &Relation) -> String {
        let mut s = String::new();
        for row in rel.rows().take(50) {
            s.push_str(&format!("{:?};", rel.tuple(row)));
        }
        s
    }
    assert_eq!(fingerprint(&sampled_cardb()), fingerprint(&sampled_cardb()));
}
