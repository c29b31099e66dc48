//! The query-processing strategies of Fig. 2 and Sec. 5.3.
//!
//! Every strategy answers the same query —
//! `retrieve (ParentRel.children.attr) where lo <= OID <= hi` — and
//! returns the same multiset of attribute values (BFSNODUP excepted: it
//! deliberately removes duplicate subobject references). They differ in
//! *how many page transfers* they need, which is what the paper measures.
//!
//! * [`dfs`] — per-parent index probes (nested-loop flavour);
//! * [`bfs`] — temporary + join, with the optimizer's choice between merge
//!   join and iterative substitution;
//! * BFSNODUP — [`bfs`] with duplicate elimination on the temporary;
//! * [`dfs_cache`] — DFS through the unit-value cache, maintaining it;
//! * [`dfs_clust`] — DFS over the clustered representation;
//! * [`smart`] — DFSCACHE below a NumTop threshold, cache-aware BFS
//!   without cache maintenance above it.

mod bfs;
mod dfs;
mod dfs_cache;
mod dfs_clust;
mod smart;

pub use bfs::bfs;
pub(crate) use bfs::{join_fetch as bfs_join_fetch, merge_chosen as bfs_merge_chosen};
pub use dfs::dfs;
pub use dfs_cache::dfs_cache;
pub use dfs_clust::dfs_clust;
pub use smart::smart;

use crate::database::CorDatabase;
use crate::matrix::Strategy;
use crate::query::{RetrieveQuery, StrategyOutput};
use crate::CorError;

/// How BFS-style plans join the temporary against ChildRel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinChoice {
    /// Cost-based choice (the paper's "optimal plan ... generated").
    #[default]
    Auto,
    /// Always merge join (the "competitive BFS" of Sec. 3.1).
    ForceMerge,
    /// Always iterative substitution.
    ForceIterative,
}

/// Execution knobs. Defaults match the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// SMART's NumTop threshold ("N = 300 in our experiments").
    pub smart_threshold: u64,
    /// Join selection for BFS-style plans.
    pub join: JoinChoice,
    /// Work memory for sorting temporaries, in bytes.
    pub sort_work_mem: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            smart_threshold: 300,
            join: JoinChoice::Auto,
            sort_work_mem: cor_access::DEFAULT_WORK_MEM,
        }
    }
}

/// Run one retrieve query under `strategy`.
///
/// This is the low-level dispatch behind `cor::Engine::retrieve`; the
/// engine is the documented entry point for applications.
pub fn execute_retrieve(
    db: &CorDatabase,
    strategy: Strategy,
    query: &RetrieveQuery,
    opts: &ExecOptions,
) -> Result<StrategyOutput, CorError> {
    match strategy {
        Strategy::Dfs => dfs(db, query),
        Strategy::Bfs => bfs(db, query, false, opts),
        Strategy::BfsNoDup => bfs(db, query, true, opts),
        Strategy::DfsCache => dfs_cache(db, query),
        Strategy::DfsClust => dfs_clust(db, query),
        Strategy::Smart => smart(db, query, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{
        CacheConfig, CorDatabase, DatabaseSpec, ObjectSpec, SubobjectSpec, CHILD_REL_BASE,
    };
    use crate::query::{RetAttr, RetrieveQuery, UpdateQuery};
    use crate::ClusterAssignment;
    use cor_pagestore::BufferPool;
    use cor_relational::Oid;
    use std::sync::Arc;

    #[test]
    fn default_options_match_paper() {
        let o = ExecOptions::default();
        assert_eq!(o.smart_threshold, 300);
        assert_eq!(o.join, JoinChoice::Auto);
    }

    fn c(k: u64) -> Oid {
        Oid::new(CHILD_REL_BASE, k)
    }

    /// 40 parents; parent i references unit {2i, 2i+1} of 80 children
    /// (no sharing — keeps expected counts exact).
    fn spec() -> DatabaseSpec {
        DatabaseSpec {
            parents: (0..40)
                .map(|key| ObjectSpec {
                    key,
                    rets: [0; 3],
                    dummy: "p".repeat(40),
                    children: vec![c(2 * key), c(2 * key + 1)],
                })
                .collect(),
            child_rels: vec![(0..80)
                .map(|k| SubobjectSpec {
                    oid: c(k),
                    rets: [k as i64, -(k as i64), 0],
                    dummy: "c".repeat(30),
                })
                .collect()],
        }
    }

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(16).build())
    }

    #[test]
    fn dfs_counts_and_cost_split() {
        let db = CorDatabase::build_standard(pool(), &spec(), None).unwrap();
        db.pool().flush_and_clear().unwrap();
        let q = RetrieveQuery {
            lo: 10,
            hi: 19,
            attr: RetAttr::Ret1,
        };
        let out = dfs(&db, &q).unwrap();
        assert_eq!(out.values.len(), 20, "10 parents x 2 children");
        assert_eq!(out.total_io(), out.par_io.total() + out.child_io.total());
        let expect: Vec<i64> = (20..40).collect();
        let mut got = out.values.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn bfs_forced_plans_differ_in_io_not_answers() {
        let db = CorDatabase::build_standard(pool(), &spec(), None).unwrap();
        let q = RetrieveQuery {
            lo: 0,
            hi: 39,
            attr: RetAttr::Ret2,
        };
        let mut outs = Vec::new();
        for join in [JoinChoice::ForceMerge, JoinChoice::ForceIterative] {
            db.pool().flush_and_clear().unwrap();
            let opts = ExecOptions {
                join,
                ..ExecOptions::default()
            };
            let out = bfs(&db, &q, false, &opts).unwrap();
            outs.push(out);
        }
        let mut a = outs[0].values.clone();
        let mut b = outs[1].values.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // A full-range query must favour the merge plan.
        assert!(
            outs[0].total_io() < outs[1].total_io(),
            "merge {} vs iterative {}",
            outs[0].total_io(),
            outs[1].total_io()
        );
    }

    #[test]
    fn dfs_cache_hits_reduce_io_and_update_invalidates() {
        let db = CorDatabase::build_standard(
            pool(),
            &spec(),
            Some(CacheConfig {
                capacity: 64,
                ..CacheConfig::default()
            }),
        )
        .unwrap();
        db.pool().flush_and_clear().unwrap();
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let cold = dfs_cache(&db, &q).unwrap();
        let warm = dfs_cache(&db, &q).unwrap();
        assert_eq!(warm.values.len(), cold.values.len());
        assert!(
            warm.child_io.total() < cold.child_io.total(),
            "warm run must hit the cache"
        );
        let k = db.cache_mut().unwrap().counters();
        assert_eq!(k.insertions, 10, "one unit per parent");
        assert_eq!(k.hits, 10);

        // An update to child 5 (unit of parent 2) invalidates exactly one
        // cached unit.
        crate::query::apply_update(
            &db,
            &UpdateQuery {
                targets: vec![c(5)],
                new_ret1: 999,
            },
            true,
        )
        .unwrap();
        assert_eq!(db.cache_mut().unwrap().counters().invalidations, 1);
        let after = dfs_cache(&db, &q).unwrap();
        let mut got = after.values.clone();
        got.sort_unstable();
        assert!(got.contains(&999), "refreshed value must be served");
    }

    #[test]
    fn dfs_clust_in_range_children_need_no_random_access() {
        // Cluster every child with its (only) parent: a range scan brings
        // every needed subobject along, so ChildCost is (near) zero.
        let s = spec();
        let parents: Vec<(u64, Vec<Oid>)> = s
            .parents
            .iter()
            .map(|o| (o.key, o.children.clone()))
            .collect();
        let assignment = ClusterAssignment::from_pairs(
            parents
                .iter()
                .flat_map(|(k, cs)| cs.iter().map(move |o| (*o, *k))),
        );
        let db = CorDatabase::build_clustered(pool(), &s, &assignment).unwrap();
        db.pool().flush_and_clear().unwrap();
        let q = RetrieveQuery {
            lo: 5,
            hi: 24,
            attr: RetAttr::Ret1,
        };
        let out = dfs_clust(&db, &q).unwrap();
        assert_eq!(out.values.len(), 40);
        assert_eq!(
            out.child_io.total(),
            0,
            "ideally clustered: the scan already fetched every subobject"
        );
        assert!(out.par_io.total() > 0);
    }

    #[test]
    fn smart_low_arm_maintains_cache_high_arm_does_not() {
        let db = CorDatabase::build_standard(
            pool(),
            &spec(),
            Some(CacheConfig {
                capacity: 64,
                ..CacheConfig::default()
            }),
        )
        .unwrap();
        let low = RetrieveQuery {
            lo: 0,
            hi: 4,
            attr: RetAttr::Ret1,
        };
        let opts = ExecOptions {
            smart_threshold: 10,
            ..ExecOptions::default()
        };
        smart(&db, &low, &opts).unwrap();
        let after_low = db.cache_mut().unwrap().counters().insertions;
        assert_eq!(after_low, 5, "low arm materializes and caches units");

        let high = RetrieveQuery {
            lo: 0,
            hi: 39,
            attr: RetAttr::Ret1,
        };
        let out = smart(&db, &high, &opts).unwrap();
        assert_eq!(out.values.len(), 80);
        let after_high = db.cache_mut().unwrap().counters().insertions;
        assert_eq!(
            after_high, after_low,
            "breadth-first arm leaves the cache invariant"
        );
    }

    #[test]
    fn inside_cache_matches_outside_and_invalidates() {
        use crate::matrix::CachePlacement;
        let mk = |placement| {
            CorDatabase::build_standard(
                pool(),
                &spec(),
                Some(CacheConfig {
                    capacity: 16,
                    placement,
                    ..CacheConfig::default()
                }),
            )
            .unwrap()
        };
        let inside = mk(CachePlacement::Inside);
        let outside = mk(CachePlacement::Outside);
        assert!(inside.has_inside_cache());
        assert!(!outside.has_inside_cache());

        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        for _ in 0..2 {
            let mut a = dfs_cache(&inside, &q).unwrap().values;
            let mut b = dfs_cache(&outside, &q).unwrap().values;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        let ci = inside.cache_counters().unwrap();
        assert_eq!(ci.insertions, 10);
        assert_eq!(ci.hits, 10, "second pass hits every inside copy");

        // An update must clear the referencing parent's inside copy and
        // the fresh value must be served.
        crate::query::apply_update(
            &inside,
            &UpdateQuery {
                targets: vec![c(7)],
                new_ret1: -777,
            },
            true,
        )
        .unwrap();
        assert_eq!(inside.cache_counters().unwrap().invalidations, 1);
        let mut v = dfs_cache(&inside, &q).unwrap().values;
        v.sort_unstable();
        assert!(v.contains(&-777));
    }

    #[test]
    fn inside_cache_respects_capacity() {
        use crate::matrix::CachePlacement;
        let db = CorDatabase::build_standard(
            pool(),
            &spec(),
            Some(CacheConfig {
                capacity: 3,
                placement: CachePlacement::Inside,
                ..CacheConfig::default()
            }),
        )
        .unwrap();
        let q = RetrieveQuery {
            lo: 0,
            hi: 39,
            attr: RetAttr::Ret1,
        };
        dfs_cache(&db, &q).unwrap();
        let k = db.cache_counters().unwrap();
        assert_eq!(k.insertions, 40);
        assert_eq!(k.evictions, 37, "only 3 parents may hold copies");
        // Still correct afterwards.
        let mut v = dfs_cache(&db, &q).unwrap().values;
        v.sort_unstable();
        assert_eq!(v.len(), 80);
    }

    #[test]
    fn smart_requires_outside_placement() {
        use crate::matrix::CachePlacement;
        let db = CorDatabase::build_standard(
            pool(),
            &spec(),
            Some(CacheConfig {
                capacity: 16,
                placement: CachePlacement::Inside,
                ..CacheConfig::default()
            }),
        )
        .unwrap();
        let q = RetrieveQuery {
            lo: 0,
            hi: 39,
            attr: RetAttr::Ret1,
        };
        let opts = ExecOptions {
            smart_threshold: 1,
            ..ExecOptions::default()
        };
        assert!(matches!(
            smart(&db, &q, &opts),
            Err(crate::CorError::NoCache)
        ));
    }
}
