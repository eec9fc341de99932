use std::collections::BTreeMap;

use aimq_afd::EncodedRelation;
use aimq_catalog::AttrId;

use crate::Bag;

/// The supertuple of one AV-pair (Section 5.2, Table 1): for every
/// attribute of the relation *other than* the pair's own attribute, a bag
/// of the feature codes co-occurring with the pair.
///
/// Feature codes come from the shared mining encoding
/// ([`EncodedRelation`]): dictionary codes for categorical attributes,
/// bucket codes for numeric ones — exactly the paper's
/// `Mileage 10k-15k:3` style entries.
#[derive(Debug, Clone, Default)]
pub struct SuperTuple {
    /// One bag per schema attribute; the bag at the supertuple's own
    /// attribute position stays empty.
    bags: Vec<Bag>,
    /// Number of tuples containing the AV-pair (the answerset size of the
    /// AV-pair seen as a one-attribute selection query).
    support: u32,
}

impl SuperTuple {
    /// Bag of co-occurring features for attribute `attr`.
    #[expect(
        clippy::indexing_slicing,
        reason = "bags is schema-sized; AttrId is in-range"
    )]
    pub fn bag(&self, attr: AttrId) -> &Bag {
        &self.bags[attr.index()]
    }

    /// All bags in schema-attribute order.
    pub fn bags(&self) -> &[Bag] {
        &self.bags
    }

    /// Number of tuples that contained this AV-pair.
    pub fn support(&self) -> u32 {
        self.support
    }
}

/// Build the supertuples of every value of `attr` in one pass over the
/// encoded relation.
///
/// Returns a vector indexed by `attr`'s dense value code. A value's
/// supertuple aggregates, for each other attribute, the codes co-occurring
/// with that value (nulls contribute nothing).
pub fn build_supertuples(enc: &EncodedRelation, attr: AttrId) -> Vec<SuperTuple> {
    let n_attrs = enc.n_attrs();
    let n_values = enc.cardinality(attr);
    let own_codes = enc.codes(attr);

    // counts[value][other_attr] : feature code -> count
    let mut counts: Vec<Vec<BTreeMap<u32, u32>>> = vec![vec![BTreeMap::new(); n_attrs]; n_values];
    let mut support = vec![0u32; n_values];

    for (row, &value) in own_codes.iter().enumerate() {
        if value == aimq_relation::NULL_CODE {
            continue;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "value codes are < cardinality by dictionary interning"
        )]
        let seen = &mut support[value as usize];
        *seen += 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "value codes are < cardinality by dictionary interning"
        )]
        let value_counts = &mut counts[value as usize];
        for (other, other_counts) in value_counts.iter_mut().enumerate() {
            if other == attr.index() {
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "codes column is relation-sized; row ranges over it"
            )]
            let feature = enc.codes(AttrId(other))[row];
            if feature == aimq_relation::NULL_CODE {
                continue;
            }
            *other_counts.entry(feature).or_insert(0) += 1;
        }
    }

    counts
        .into_iter()
        .zip(support)
        .map(|(per_attr, support)| SuperTuple {
            bags: per_attr.iter().map(Bag::from_counts).collect(),
            support,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_afd::BucketConfig;
    use aimq_catalog::{BucketSpec, Schema, Tuple, Value};
    use aimq_relation::Relation;

    /// Mini CarDB mirroring the paper's Table 1 structure.
    fn setup() -> (Relation, EncodedRelation) {
        let schema = Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Price")
            .categorical("Color")
            .build()
            .unwrap();
        let rows = [
            ("Ford", "Focus", 4000.0, "White"),
            ("Ford", "Focus", 4500.0, "Black"),
            ("Ford", "F150", 16000.0, "White"),
            ("Toyota", "Camry", 9000.0, "White"),
            ("Toyota", "Camry", 9500.0, "Silver"),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(mk, md, p, c)| {
                Tuple::new(
                    &schema,
                    vec![Value::cat(mk), Value::cat(md), Value::num(p), Value::cat(c)],
                )
                .unwrap()
            })
            .collect();
        let rel = Relation::from_tuples(schema.clone(), &tuples).unwrap();
        let cfg = BucketConfig::for_schema(&schema).with_spec(AttrId(2), BucketSpec::width(5000.0));
        let enc = EncodedRelation::encode(&rel, &cfg);
        (rel, enc)
    }

    fn code_of(rel: &Relation, attr: AttrId, value: &str) -> u32 {
        rel.column(attr)
            .dictionary()
            .unwrap()
            .code_of(value)
            .unwrap()
    }

    #[test]
    fn supertuple_counts_cooccurrences() {
        let (rel, enc) = setup();
        let sts = build_supertuples(&enc, AttrId(0)); // per Make value
        let ford = &sts[code_of(&rel, AttrId(0), "Ford") as usize];
        assert_eq!(ford.support(), 3);

        // Model bag: Focus:2, F150:1.
        let focus = code_of(&rel, AttrId(1), "Focus");
        let f150 = code_of(&rel, AttrId(1), "F150");
        assert_eq!(ford.bag(AttrId(1)).count(focus), 2);
        assert_eq!(ford.bag(AttrId(1)).count(f150), 1);

        // Color bag: White:2, Black:1; no Silver.
        let white = code_of(&rel, AttrId(3), "White");
        let black = code_of(&rel, AttrId(3), "Black");
        let silver = code_of(&rel, AttrId(3), "Silver");
        assert_eq!(ford.bag(AttrId(3)).count(white), 2);
        assert_eq!(ford.bag(AttrId(3)).count(black), 1);
        assert_eq!(ford.bag(AttrId(3)).count(silver), 0);
    }

    #[test]
    fn numeric_features_are_bucketized() {
        let (rel, enc) = setup();
        let sts = build_supertuples(&enc, AttrId(0));
        let ford = &sts[code_of(&rel, AttrId(0), "Ford") as usize];
        // Prices 4000 & 4500 share the 0-5k bucket; 16000 is its own.
        let price_bag = ford.bag(AttrId(2));
        assert_eq!(price_bag.distinct(), 2);
        assert_eq!(price_bag.total(), 3);
        let max_count = price_bag.iter().map(|(_, c)| c).max().unwrap();
        assert_eq!(max_count, 2);
    }

    #[test]
    fn own_attribute_bag_stays_empty() {
        let (rel, enc) = setup();
        let sts = build_supertuples(&enc, AttrId(0));
        let ford = &sts[code_of(&rel, AttrId(0), "Ford") as usize];
        assert!(ford.bag(AttrId(0)).is_empty());
    }

    #[test]
    fn every_value_gets_a_supertuple() {
        let (rel, enc) = setup();
        let sts = build_supertuples(&enc, AttrId(1)); // per Model
        assert_eq!(sts.len(), 3); // Focus, F150, Camry
        let camry = &sts[code_of(&rel, AttrId(1), "Camry") as usize];
        assert_eq!(camry.support(), 2);
        // Camry co-occurs only with Toyota.
        let toyota = code_of(&rel, AttrId(0), "Toyota");
        assert_eq!(camry.bag(AttrId(0)).count(toyota), 2);
        assert_eq!(camry.bag(AttrId(0)).distinct(), 1);
    }

    #[test]
    fn supertuple_totals_match_support() {
        let (_, enc) = setup();
        for attr in 0..4 {
            if attr == 2 {
                continue; // numeric attribute: no supertuples of its own
            }
            let sts = build_supertuples(&enc, AttrId(attr));
            for st in &sts {
                for (i, bag) in st.bags().iter().enumerate() {
                    if i == attr {
                        continue;
                    }
                    // Without nulls, each co-attribute bag holds exactly
                    // `support` features.
                    assert_eq!(bag.total(), u64::from(st.support()));
                }
            }
        }
    }

    #[test]
    fn nulls_do_not_contribute_features() {
        let schema = Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .build()
            .unwrap();
        let t1 = Tuple::new(&schema, vec![Value::cat("x"), Value::Null]).unwrap();
        let t2 = Tuple::new(&schema, vec![Value::cat("x"), Value::cat("y")]).unwrap();
        let rel = Relation::from_tuples(schema.clone(), &[t1, t2]).unwrap();
        let enc = EncodedRelation::encode(&rel, &BucketConfig::for_schema(&schema));
        let sts = build_supertuples(&enc, AttrId(0));
        assert_eq!(sts[0].support(), 2);
        assert_eq!(sts[0].bag(AttrId(1)).total(), 1); // only the non-null y
    }
}
