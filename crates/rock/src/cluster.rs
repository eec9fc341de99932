use std::collections::{BTreeMap, BinaryHeap};

/// `f(θ) = (1 − θ) / (1 + θ)` — ROCK's estimate of the exponent governing
/// how many neighbors a point has inside its cluster.
pub(crate) fn f_theta(theta: f64) -> f64 {
    (1.0 - theta) / (1.0 + theta)
}

/// The result of ROCK's agglomerative phase: disjoint clusters of member
/// indices (into whatever member list the links were computed over).
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Clusters sorted by descending size, members ascending.
    pub clusters: Vec<Vec<u32>>,
}

impl Clustering {
    /// Number of clusters (including singletons).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when no clusters exist (no input points).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Cluster id of each point (indexed by member index).
    pub fn assignments(&self, n_points: usize) -> Vec<u32> {
        let mut assign = vec![0u32; n_points];
        for (cid, members) in self.clusters.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "assign is sample-sized; members are sample indices"
            )]
            for &m in members {
                assign[m as usize] = cid as u32;
            }
        }
        assign
    }
}

#[derive(Debug)]
struct HeapEntry {
    goodness: f64,
    a: u32,
    b: u32,
    links: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.goodness == other.goodness && self.a == other.a && self.b == other.b
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on goodness; deterministic tie-break on ids.
        self.goodness
            .total_cmp(&other.goodness)
            .then_with(|| (other.a, other.b).cmp(&(self.a, self.b)))
    }
}

struct Cluster {
    members: Vec<u32>,
    links: BTreeMap<u32, u64>,
}

/// ROCK's greedy agglomerative clustering: repeatedly merge the cluster
/// pair with the highest goodness
/// `g(Ci,Cj) = links[Ci,Cj] / ((ni+nj)^(1+2f(θ)) − ni^(1+2f(θ)) − nj^(1+2f(θ)))`
/// until `target` clusters remain or no linked pair is left.
///
/// Uses a global lazy max-heap: entries are invalidated (and skipped on
/// pop) when either endpoint has since been merged away or the cached link
/// count is stale — `O(E log E)` overall.
pub fn cluster_greedy(
    links: &BTreeMap<(u32, u32), u32>,
    n_points: usize,
    theta: f64,
    target: usize,
) -> Clustering {
    let exponent = 1.0 + 2.0 * f_theta(theta);
    let goodness = |l: u64, na: usize, nb: usize| -> f64 {
        let denom = ((na + nb) as f64).powf(exponent)
            - (na as f64).powf(exponent)
            - (nb as f64).powf(exponent);
        if denom <= 0.0 {
            0.0
        } else {
            l as f64 / denom
        }
    };

    // One cluster per point to start; merged clusters get fresh ids.
    let mut clusters: Vec<Option<Cluster>> = (0..n_points)
        .map(|i| {
            Some(Cluster {
                members: vec![i as u32],
                links: BTreeMap::new(),
            })
        })
        .collect();
    for (&(a, b), &l) in links {
        let l = u64::from(l);
        if l == 0 {
            continue;
        }
        // Link keys index `members`; out-of-range pairs (a caller bug)
        // are dropped rather than panicking.
        if let Some(ca) = clusters.get_mut(a as usize).and_then(Option::as_mut) {
            ca.links.insert(b, l);
        }
        if let Some(cb) = clusters.get_mut(b as usize).and_then(Option::as_mut) {
            cb.links.insert(a, l);
        }
    }

    let mut heap = BinaryHeap::with_capacity(links.len());
    for (&(a, b), &l) in links {
        if l > 0 {
            heap.push(HeapEntry {
                goodness: goodness(u64::from(l), 1, 1),
                a,
                b,
                links: u64::from(l),
            });
        }
    }

    let mut alive = n_points;
    while alive > target {
        let Some(entry) = heap.pop() else { break };
        let (a, b) = (entry.a as usize, entry.b as usize);
        // Lazy invalidation: skip dead or stale entries.
        #[expect(
            clippy::indexing_slicing,
            reason = "a and b are live slots selected by the merge scan"
        )]
        let fresh = match (&clusters[a], &clusters[b]) {
            (Some(ca), Some(_)) => ca.links.get(&entry.b).copied().unwrap_or(0) == entry.links,
            _ => false,
        };
        if !fresh {
            continue;
        }

        // Merge a and b into a fresh cluster. Both slots were just
        // checked alive; the let-else merely keeps this panic-free.
        #[expect(
            clippy::indexing_slicing,
            reason = "a and b are live slots selected by the merge scan"
        )]
        let (Some(ca), Some(cb)) = (clusters[a].take(), clusters[b].take()) else {
            continue;
        };
        let new_id = clusters.len() as u32;
        let mut members = ca.members;
        members.extend(cb.members);

        // Combined link table: neighbors of either operand.
        let mut merged_links: BTreeMap<u32, u64> = BTreeMap::new();
        for (src, other_id) in [(&ca.links, entry.b), (&cb.links, entry.a)] {
            for (&x, &l) in src {
                if x == other_id {
                    continue; // the edge between a and b disappears
                }
                *merged_links.entry(x).or_insert(0) += l;
            }
        }

        // Rewire neighbors and push fresh heap entries.
        let new_size = members.len();
        for (&x, &l) in &merged_links {
            // Links only reference alive clusters; a dead neighbor would
            // be an invalidation bug and its entry is simply dropped.
            let Some(xc) = clusters.get_mut(x as usize).and_then(Option::as_mut) else {
                continue;
            };
            xc.links.remove(&(entry.a));
            xc.links.remove(&(entry.b));
            xc.links.insert(new_id, l);
            let g = goodness(l, new_size, xc.members.len());
            heap.push(HeapEntry {
                goodness: g,
                a: new_id,
                b: x,
                links: l,
            });
        }

        clusters.push(Some(Cluster {
            members,
            links: merged_links,
        }));
        alive -= 1;
    }

    let mut out: Vec<Vec<u32>> = clusters
        .into_iter()
        .flatten()
        .map(|c| {
            let mut m = c.members;
            m.sort_unstable();
            m
        })
        .collect();
    out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    Clustering { clusters: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links_of(pairs: &[((u32, u32), u32)]) -> BTreeMap<(u32, u32), u32> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn two_obvious_groups_merge_cleanly() {
        // Points 0-2 densely linked; 3-5 densely linked; no cross links.
        let links = links_of(&[
            ((0, 1), 2),
            ((0, 2), 2),
            ((1, 2), 2),
            ((3, 4), 2),
            ((3, 5), 2),
            ((4, 5), 2),
        ]);
        let c = cluster_greedy(&links, 6, 0.5, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.clusters[0], vec![0, 1, 2]);
        assert_eq!(c.clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn unlinked_points_stay_singletons() {
        let links = links_of(&[((0, 1), 3)]);
        let c = cluster_greedy(&links, 4, 0.5, 1);
        // 0,1 merge; 2 and 3 have no links → remain singletons even though
        // target was 1.
        assert_eq!(c.len(), 3);
        assert_eq!(c.clusters[0], vec![0, 1]);
    }

    #[test]
    fn stops_at_target_cluster_count() {
        // Chain of links; target 3 keeps three clusters.
        let links = links_of(&[((0, 1), 5), ((1, 2), 4), ((2, 3), 3), ((3, 4), 2)]);
        let c = cluster_greedy(&links, 5, 0.5, 3);
        assert_eq!(c.len(), 3);
        let total: usize = c.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn goodness_prefers_strong_small_merges() {
        // Pair (0,1) has 10 links; pair (2,3) has 1. First merge must be
        // (0,1). With target 3 only one merge happens.
        let links = links_of(&[((0, 1), 10), ((2, 3), 1)]);
        let c = cluster_greedy(&links, 4, 0.5, 3);
        assert!(c.clusters.contains(&vec![0, 1]));
        assert!(c.clusters.contains(&vec![2]));
        assert!(c.clusters.contains(&vec![3]));
    }

    #[test]
    fn assignments_cover_all_points() {
        let links = links_of(&[((0, 1), 2), ((2, 3), 2)]);
        let c = cluster_greedy(&links, 5, 0.5, 2);
        let assign = c.assignments(5);
        assert_eq!(assign.len(), 5);
        // Points in the same cluster share an id; 4 is alone.
        assert_eq!(assign[0], assign[1]);
        assert_eq!(assign[2], assign[3]);
        assert_ne!(assign[0], assign[2]);
        assert_ne!(assign[4], assign[0]);
    }

    #[test]
    fn empty_input() {
        let c = cluster_greedy(&BTreeMap::new(), 0, 0.5, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn deterministic_with_ties() {
        let links = links_of(&[((0, 1), 1), ((2, 3), 1)]);
        let a = cluster_greedy(&links, 4, 0.5, 2);
        let b = cluster_greedy(&links, 4, 0.5, 2);
        assert_eq!(a.clusters, b.clusters);
    }
}
