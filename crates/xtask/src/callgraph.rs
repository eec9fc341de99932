//! Workspace call-graph construction and the reachability fixpoint of
//! L8 `probe-effect`: which functions may transitively reach the
//! `WebDatabase::try_query` boundary? Same-name functions merge across
//! files into one summary (trait impls union their effects —
//! conservative but sound), then caller ← callee propagation runs to a
//! fixpoint.
//!
//! The graph is name-based, not path-based: a hand-rolled lexical scan
//! cannot resolve method receivers, so `inner.try_query(..)` and
//! `ResilientWebDb::try_query` collapse into one node. The
//! [`CALLEE_BLOCKLIST`] keeps std-alike method names from fabricating
//! edges through that aliasing.

use std::collections::{BTreeMap, BTreeSet};

use crate::structure::FileAnalysis;

/// Callee names too generic to resolve through the workspace call
/// graph: std-alike methods (`len`, `clear`, `insert`, ...) that would
/// otherwise alias unrelated workspace functions and fabricate edges
/// (e.g. `pages.len()` aliasing `CachedWebDb::len`).
pub const CALLEE_BLOCKLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "len",
    "is_empty",
    "clear",
    "next",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "iter",
    "iter_mut",
    "contains",
    "contains_key",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "from",
    "into",
    "index",
    "min",
    "max",
    "map",
    "and_then",
    "filter",
    "collect",
    "sum",
    "extend",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
];

/// Merged-by-name call edges: function name → the (blocklist-filtered)
/// callee names appearing in any same-named function body, workspace
/// wide.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// fn name → callees.
    pub calls: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Build the merged graph over every analyzed file.
    pub fn build<'a, I>(analyses: I) -> CallGraph
    where
        I: IntoIterator<Item = &'a FileAnalysis>,
    {
        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for analysis in analyses {
            for f in &analysis.functions {
                let set = calls.entry(f.name.clone()).or_default();
                set.extend(
                    f.calls
                        .iter()
                        .filter(|c| !CALLEE_BLOCKLIST.contains(&c.as_str()))
                        .cloned(),
                );
            }
        }
        CallGraph { calls }
    }

    /// Boolean reachability: every function that can transitively call
    /// one of `targets` (direct call included). Target names that are
    /// themselves defined functions are *not* implicitly members — only
    /// functions whose call chains reach a target are returned.
    pub fn reaches_callee(&self, targets: &BTreeSet<&str>) -> BTreeSet<String> {
        let mut reaching: BTreeSet<String> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (name, callees) in &self.calls {
                if reaching.contains(name) {
                    continue;
                }
                let hits = callees
                    .iter()
                    .any(|c| targets.contains(c.as_str()) || reaching.contains(c));
                if hits {
                    reaching.insert(name.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        reaching
    }

    /// A shortest witness chain `from → ... → <target>` through the
    /// graph, for diagnostics. Deterministic (BTree order BFS); `None`
    /// when `from` does not reach any target.
    pub fn witness(&self, from: &str, targets: &BTreeSet<&str>) -> Option<Vec<String>> {
        if targets.contains(from) {
            return Some(vec![from.to_string()]);
        }
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<&str> = std::collections::VecDeque::new();
        queue.push_back(from);
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        seen.insert(from);
        while let Some(node) = queue.pop_front() {
            let Some(callees) = self.calls.get(node) else {
                continue;
            };
            for callee in callees {
                if targets.contains(callee.as_str()) {
                    // Reconstruct from → ... → node, then the target.
                    let mut chain = vec![callee.clone(), node.to_string()];
                    let mut cur = node;
                    while let Some(p) = prev.get(cur) {
                        chain.push((*p).to_string());
                        cur = p;
                    }
                    chain.reverse();
                    return Some(chain);
                }
                if seen.insert(callee.as_str()) {
                    prev.insert(callee.as_str(), node);
                    queue.push_back(callee.as_str());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use crate::structure::analyze;

    fn graph(srcs: &[&str]) -> CallGraph {
        let analyses: Vec<_> = srcs.iter().map(|s| analyze(&scan(s))).collect();
        CallGraph::build(analyses.iter())
    }

    #[test]
    fn same_name_functions_merge_across_files() {
        let g = graph(&[
            "fn work(&self) { self.helper(); }",
            "fn work(&self) { other(); }",
        ]);
        let callees = g.calls.get("work").unwrap();
        assert!(callees.contains("helper") && callees.contains("other"));
    }

    #[test]
    fn blocklisted_callees_are_dropped() {
        let g = graph(&["fn f(xs: &[u8]) { xs.len(); real_helper(); }"]);
        let callees = g.calls.get("f").unwrap();
        assert!(!callees.contains("len"));
        assert!(callees.contains("real_helper"));
    }

    #[test]
    fn reaches_callee_is_transitive_and_witnessed() {
        let g = graph(&[
            "fn probe(db: &D) { db.try_query(q); }\nfn refresh(db: &D) { probe(db); }\nfn local(x: u64) -> u64 { bump(x) }",
        ]);
        let targets: BTreeSet<&str> = ["try_query"].into_iter().collect();
        let reaching = g.reaches_callee(&targets);
        assert!(reaching.contains("probe"));
        assert!(reaching.contains("refresh"));
        assert!(!reaching.contains("local"));
        let chain = g.witness("refresh", &targets).unwrap();
        assert_eq!(chain, vec!["refresh", "probe", "try_query"]);
    }
}
