use std::collections::BTreeMap;

use aimq_relation::RowId;

use crate::PointSet;

/// Compute ROCK link counts among `members` (indices into `points`).
///
/// 1. neighbor lists: `p` and `q` are neighbors iff `sim(p, q) ≥ θ`
///    (a point is *not* its own neighbor, matching the ROCK paper);
/// 2. `link(p, q)` = number of common neighbors, computed by iterating
///    each point's neighbor list and crediting every pair in it —
///    `O(Σ deg²)`, the ROCK paper's algorithm.
///
/// Returns the (sparse, symmetric) link map keyed by `(i, j)` with
/// `i < j`, where `i`, `j` index into `members` — a `BTreeMap` so every
/// downstream iteration (heap seeding, merges) is deterministic.
pub fn compute_links(
    points: &PointSet,
    members: &[RowId],
    theta: f64,
) -> BTreeMap<(u32, u32), u32> {
    let n = members.len();
    // Neighbor lists over member indices.
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            #[expect(
                clippy::indexing_slicing,
                reason = "i and j are bounded by members.len()"
            )]
            let linked = points.sim(members[i], members[j]) >= theta;
            if linked {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i and j are bounded by members.len()"
                )]
                neighbors[i].push(j as u32);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i and j are bounded by members.len()"
                )]
                neighbors[j].push(i as u32);
            }
        }
    }

    let mut links: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for nbrs in &neighbors {
        for (a_idx, &a) in nbrs.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "a_idx enumerates nbrs, so the tail slice is in-range"
            )]
            for &b in &nbrs[a_idx + 1..] {
                let key = if a < b { (a, b) } else { (b, a) };
                *links.entry(key).or_insert(0) += 1;
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_afd::{BucketConfig, EncodedRelation};
    use aimq_catalog::{Schema, Tuple, Value};
    use aimq_relation::Relation;

    fn point_set(rows: &[(&str, &str, &str)]) -> PointSet {
        let schema = Schema::builder("R")
            .categorical("A")
            .categorical("B")
            .categorical("C")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(a, b, c)| {
                Tuple::new(&schema, vec![Value::cat(a), Value::cat(b), Value::cat(c)]).unwrap()
            })
            .collect();
        let rel = Relation::from_tuples(schema.clone(), &tuples).unwrap();
        PointSet::from_encoded(&EncodedRelation::encode(
            &rel,
            &BucketConfig::for_schema(&schema),
        ))
    }

    #[test]
    fn links_count_common_neighbors() {
        // Points 0,1,2 pairwise similar (share 2 of 3 attrs → sim 0.5);
        // point 3 is isolated.
        let ps = point_set(&[
            ("x", "y", "z"),
            ("x", "y", "w"),
            ("x", "y", "v"),
            ("p", "q", "r"),
        ]);
        let members: Vec<RowId> = (0..4).collect();
        let links = compute_links(&ps, &members, 0.5);
        // Neighbor graph: 0-1, 0-2, 1-2. Common neighbors: each pair has 1.
        assert_eq!(links.get(&(0, 1)), Some(&1));
        assert_eq!(links.get(&(0, 2)), Some(&1));
        assert_eq!(links.get(&(1, 2)), Some(&1));
        assert!(!links.keys().any(|&(a, b)| a == 3 || b == 3));
    }

    #[test]
    fn high_threshold_disconnects_everything() {
        let ps = point_set(&[("x", "y", "z"), ("x", "y", "w"), ("x", "q", "v")]);
        let links = compute_links(&ps, &[0, 1, 2], 0.9);
        assert!(links.is_empty());
    }

    #[test]
    fn links_are_over_member_indices_not_row_ids() {
        let ps = point_set(&[
            ("p", "q", "r"), // row 0, excluded
            ("x", "y", "z"),
            ("x", "y", "w"),
            ("x", "y", "v"),
        ]);
        // members[0] = row 1, etc.
        let links = compute_links(&ps, &[1, 2, 3], 0.5);
        assert_eq!(links.get(&(0, 1)), Some(&1));
        assert_eq!(links.len(), 3);
    }

    #[test]
    fn star_topology_gives_leaf_pairs_links() {
        // Hub similar to all leaves; leaves dissimilar to each other.
        let ps = point_set(&[
            ("h", "h", "h"),
            ("h", "h", "a"), // sim to hub 0.5, to other leaves 2 shared? ("h","h") shared → 0.5... need leaves pairwise < θ
            ("h", "b", "h"),
            ("c", "h", "h"),
        ]);
        // leaf-leaf similarity: e.g. rows 1,2 share only A? (h vs h yes), B (h vs b no), C (a vs h no) → 1/5 = 0.2.
        let links = compute_links(&ps, &[0, 1, 2, 3], 0.4);
        // Neighbors: hub-leaf edges only. Every leaf pair shares the hub.
        assert_eq!(links.get(&(1, 2)), Some(&1));
        assert_eq!(links.get(&(1, 3)), Some(&1));
        assert_eq!(links.get(&(2, 3)), Some(&1));
        // Hub has no pair with 2 common neighbors... hub-leaf pairs share
        // no common neighbor (leaves aren't neighbors of each other).
        assert_eq!(links.get(&(0, 1)), None);
    }

    #[test]
    fn empty_members() {
        let ps = point_set(&[("x", "y", "z")]);
        assert!(compute_links(&ps, &[], 0.5).is_empty());
    }
}
