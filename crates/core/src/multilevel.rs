//! Multi-level ("multi-dot") queries.
//!
//! The paper's example query uses two dots — `group.members.name` — and
//! notes that "queries involving more than two dots in the target list
//! require more levels of relationships to be explored" (Sec. 3), citing
//! the recursion-vs-iteration framing of \[BANC86\]. The VLSI motivation
//! (cells → paths → rectangles) is exactly a three-dot query.
//!
//! A hierarchy is a chain of databases: level `i`'s subobject OIDs name
//! level `i+1`'s objects (`child OID key = next level's parent key`); the
//! last database resolves its subobjects normally. Two executors:
//!
//! * [`dfs_multilevel`] — recursion: descend per object reference;
//! * [`bfs_multilevel`] — iteration: one temporary of OIDs per level,
//!   joined breadth-first, optionally with duplicate elimination between
//!   levels. The paper observes "the benefits of BFSNODUP will increase
//!   with an increase in the number of levels explored" — duplicates
//!   multiply through shared intermediate objects, and eliminating them
//!   early shrinks every later join (reproduced by the `multilevel`
//!   bench).

use crate::database::{CorDatabase, PARENT_REL};
use crate::query::{fetch_ret, RetAttr, RetrieveQuery, StrategyOutput};
use crate::strategies::{self, ExecOptions};
use crate::{CorError, Strategy};
use cor_access::{external_sort, HeapFile};
use cor_relational::Oid;
use std::sync::Arc;

/// `retrieve (L0.children.children...attr) where lo <= L0.OID <= hi`,
/// descending through `levels.len()` databases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiDotQuery {
    /// Lower bound on the level-0 object keys.
    pub lo: u64,
    /// Upper bound (inclusive).
    pub hi: u64,
    /// Attribute projected from the final level's subobjects.
    pub attr: RetAttr,
}

/// Validate a hierarchy: every level must be a standard-representation
/// database, and each level's subobject keys must resolve as the next
/// level's parent keys (checked lazily during execution; here we check
/// representations only).
fn check_levels(levels: &[CorDatabase]) -> Result<(), CorError> {
    if levels.is_empty() {
        return Err(CorError::WrongRepresentation("at least one level"));
    }
    for db in levels {
        // Both executors need ParentRel B-trees.
        db.parent_tree()?;
    }
    Ok(())
}

/// Depth-first (recursive) multi-level retrieval.
pub fn dfs_multilevel(
    levels: &[CorDatabase],
    query: &MultiDotQuery,
) -> Result<StrategyOutput, CorError> {
    check_levels(levels)?;
    let stats = levels[0].pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = levels[0].parents_in_range(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    let mut values = Vec::new();
    for (_key, children) in &parents {
        for &oid in children {
            descend(levels, 0, oid, query.attr, &mut values)?;
        }
    }
    let s2 = stats.snapshot();
    // ParCost covers only level-0 object access; everything deeper is
    // subobject exploration. (Each level's own I/O lands on its own pool's
    // counters; the totals here are correct when levels share a pool and
    // per-level otherwise — the driver sums per-level stats.)
    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}

fn descend(
    levels: &[CorDatabase],
    level: usize,
    oid: Oid,
    attr: RetAttr,
    values: &mut Vec<i64>,
) -> Result<(), CorError> {
    if level + 1 == levels.len() {
        // `oid` names a subobject of the last database.
        values.push(fetch_ret(&levels[level], oid, attr)?);
        return Ok(());
    }
    // `oid` names an object of the next database.
    let next = &levels[level + 1];
    let rows = next.parents_in_range(oid.key, oid.key)?;
    let (_, children) = rows.into_iter().next().ok_or(CorError::DanglingOid(oid))?;
    for child in children {
        descend(levels, level + 1, child, attr, values)?;
    }
    Ok(())
}

/// Breadth-first (iterative) multi-level retrieval. With `dedup`,
/// duplicate OIDs are eliminated between levels (the multi-level
/// BFSNODUP).
pub fn bfs_multilevel(
    levels: &[CorDatabase],
    query: &MultiDotQuery,
    dedup: bool,
    opts: &ExecOptions,
) -> Result<StrategyOutput, CorError> {
    check_levels(levels)?;
    let stats = levels[0].pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = levels[0].parents_in_range(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    // Frontier: the subobject OIDs collected at the current level.
    let mut frontier: Vec<Oid> = parents
        .iter()
        .flat_map(|(_, cs)| cs.iter().copied())
        .collect();

    let mut values = Vec::new();
    for (level, db) in levels.iter().enumerate() {
        let last = level + 1 == levels.len();
        if last {
            // Resolve the frontier against the final database's ChildRels
            // using the standard BFS join machinery (handles per-relation
            // temporaries, plan choice, and dedup).
            let mut by_rel: std::collections::BTreeMap<u16, Vec<Oid>> = Default::default();
            for oid in frontier.drain(..) {
                by_rel.entry(oid.rel).or_default().push(oid);
            }
            for (rel, oids) in &by_rel {
                strategies::bfs_join_fetch(db, *rel, oids, query.attr, dedup, opts, &mut values)?;
            }
            break;
        }
        // Intermediate level: the frontier names the NEXT database's
        // objects. Materialize the frontier as a temporary of parent keys
        // (unlogged; freed at the end of this iteration), sort it, and join
        // against the next ParentRel to collect the level-deeper frontier
        // by BFS's own plan choice (`cost::bfs_join_plan`, or `opts.join`
        // when forced). Unlike single-level BFS, the temporary is sorted
        // before iterative probes too.
        let next = &levels[level + 1];
        let temp = HeapFile::temp(Arc::clone(next.pool()))?;
        let keys: Vec<_> = frontier
            .drain(..)
            .map(|oid| Oid::new(PARENT_REL, oid.key).to_key_bytes())
            .collect();
        temp.append_all(&keys)?;
        temp.flush()?;
        let sorted = external_sort(
            next.pool(),
            temp.scan().map(|(_, rec)| rec),
            opts.sort_work_mem,
            dedup,
        )?;
        let tree = next.parent_tree()?;
        let schema = next.parent_schema().clone();
        let collect = |rec: &[u8], frontier: &mut Vec<Oid>| -> Result<(), CorError> {
            let t = cor_access::decode(&schema, rec)?;
            let children = t.get(5).as_oid_list().expect("children column");
            frontier.extend_from_slice(children);
            Ok(())
        };
        if strategies::bfs_merge_chosen(opts, &temp, tree) {
            tree.merge_scan(sorted, |_key, rec| collect(rec, &mut frontier))?;
        } else {
            for key in sorted {
                tree.get_with(&key, |rec| collect(rec, &mut frontier))?
                    .ok_or_else(|| {
                        CorError::DanglingOid(Oid::from_key_bytes(&key).expect("oid key"))
                    })?;
            }
        }
    }
    let s2 = stats.snapshot();
    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}

/// Run a multi-level query under a strategy name (DFS, BFS or BFSNODUP);
/// other strategies are single-level concepts.
///
/// This is the low-level dispatch behind `cor::Engine::retrieve_multilevel`.
pub fn execute_multilevel(
    levels: &[CorDatabase],
    strategy: Strategy,
    query: &MultiDotQuery,
    opts: &ExecOptions,
) -> Result<StrategyOutput, CorError> {
    match strategy {
        Strategy::Dfs => dfs_multilevel(levels, query),
        Strategy::Bfs => bfs_multilevel(levels, query, false, opts),
        Strategy::BfsNoDup => bfs_multilevel(levels, query, true, opts),
        other => {
            // Single-level fallback so one-level hierarchies still accept
            // every strategy.
            if levels.len() == 1 {
                let q = RetrieveQuery {
                    lo: query.lo,
                    hi: query.hi,
                    attr: query.attr,
                };
                strategies::execute_retrieve(&levels[0], other, &q, opts)
            } else {
                Err(CorError::WrongRepresentation(
                    "DFS/BFS/BFSNODUP for multi-level queries",
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{DatabaseSpec, ObjectSpec, SubobjectSpec, CHILD_REL_BASE};
    use crate::strategies::JoinChoice;
    use cor_pagestore::BufferPool;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(32).telemetry(true).build())
    }

    /// Two-level hierarchy:
    /// groups (0..3) -> members (paths of people) -> hobbies.
    /// Level 0: 3 groups each referencing 2 "person" oids (person 1 shared
    /// by groups 0 and 1).
    /// Level 1: 4 persons, each referencing hobbies; hobby 0 shared.
    fn two_level_chain() -> Vec<CorDatabase> {
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        // Level 0: groups -> persons.
        let level0 = DatabaseSpec {
            parents: vec![
                ObjectSpec {
                    key: 0,
                    rets: [0; 3],
                    dummy: "g".into(),
                    children: vec![c(0), c(1)],
                },
                ObjectSpec {
                    key: 1,
                    rets: [0; 3],
                    dummy: "g".into(),
                    children: vec![c(1), c(2)],
                },
                ObjectSpec {
                    key: 2,
                    rets: [0; 3],
                    dummy: "g".into(),
                    children: vec![c(3)],
                },
            ],
            child_rels: vec![(0..4)
                .map(|k| SubobjectSpec {
                    oid: c(k),
                    rets: [0; 3],
                    dummy: "p".into(),
                })
                .collect()],
        };
        // Level 1: persons -> hobbies. Hobby ret1 = 100 * hobby key.
        let level1 = DatabaseSpec {
            parents: vec![
                ObjectSpec {
                    key: 0,
                    rets: [0; 3],
                    dummy: "p".into(),
                    children: vec![c(0), c(1)],
                },
                ObjectSpec {
                    key: 1,
                    rets: [0; 3],
                    dummy: "p".into(),
                    children: vec![c(0)],
                },
                ObjectSpec {
                    key: 2,
                    rets: [0; 3],
                    dummy: "p".into(),
                    children: vec![c(2)],
                },
                ObjectSpec {
                    key: 3,
                    rets: [0; 3],
                    dummy: "p".into(),
                    children: vec![],
                },
            ],
            child_rels: vec![(0..3)
                .map(|k| SubobjectSpec {
                    oid: c(k),
                    rets: [100 * k as i64, 0, 0],
                    dummy: "h".into(),
                })
                .collect()],
        };
        vec![
            CorDatabase::build_standard(pool(), &level0, None).unwrap(),
            CorDatabase::build_standard(pool(), &level1, None).unwrap(),
        ]
    }

    #[test]
    fn dfs_two_levels_follows_every_path() {
        let levels = two_level_chain();
        let q = MultiDotQuery {
            lo: 0,
            hi: 2,
            attr: RetAttr::Ret1,
        };
        let mut v = dfs_multilevel(&levels, &q).unwrap().values;
        v.sort_unstable();
        // Paths: g0->p0->{h0,h1}, g0->p1->{h0}, g1->p1->{h0},
        // g1->p2->{h2}, g2->p3->{} => values {0,100,0,0,200}.
        assert_eq!(v, vec![0, 0, 0, 100, 200]);
    }

    #[test]
    fn bfs_matches_dfs_multiset() {
        let levels = two_level_chain();
        for (lo, hi) in [(0, 2), (0, 0), (1, 2), (2, 2)] {
            let q = MultiDotQuery {
                lo,
                hi,
                attr: RetAttr::Ret1,
            };
            let mut d = dfs_multilevel(&levels, &q).unwrap().values;
            let mut b = bfs_multilevel(&levels, &q, false, &ExecOptions::default())
                .unwrap()
                .values;
            d.sort_unstable();
            b.sort_unstable();
            assert_eq!(d, b, "range {lo}..={hi}");
        }
    }

    /// Every join choice, with and without dedup, answers like the DFS
    /// oracle (with dedup, like its distinct values: each hobby's `ret1`
    /// is distinct). And the intermediate level runs the plan it is given:
    /// groups 0..=0 reach persons {0, 1}, a two-OID frontier for which
    /// BFS's rule picks iterative substitution, so `Auto` probes the next
    /// ParentRel twice where a forced merge join pins its leaf once.
    #[test]
    fn every_join_choice_answers_like_dfs() {
        let levels = two_level_chain();
        let hits = || -> u64 {
            let shards = levels[1].pool().telemetry().expect("telemetry");
            shards.iter().map(|s| s.hits).sum()
        };
        for (lo, hi) in [(0, 2), (0, 0), (1, 2), (2, 2)] {
            let q = MultiDotQuery {
                lo,
                hi,
                attr: RetAttr::Ret1,
            };
            let mut oracle = dfs_multilevel(&levels, &q).unwrap().values;
            oracle.sort_unstable();
            for dedup in [false, true] {
                let mut want = oracle.clone();
                if dedup {
                    want.dedup();
                }
                let mut pins = Vec::new();
                for join in [
                    JoinChoice::Auto,
                    JoinChoice::ForceMerge,
                    JoinChoice::ForceIterative,
                ] {
                    let opts = ExecOptions {
                        join,
                        ..ExecOptions::default()
                    };
                    let before = hits();
                    let mut got = bfs_multilevel(&levels, &q, dedup, &opts).unwrap().values;
                    pins.push(hits() - before);
                    got.sort_unstable();
                    assert_eq!(got, want, "{lo}..={hi} {join:?} dedup {dedup}");
                }
                if (lo, hi) == (0, 0) {
                    assert!(pins[1] < pins[0], "dedup {dedup}: pins {pins:?}");
                }
            }
        }
    }

    #[test]
    fn nodup_eliminates_shared_paths() {
        let levels = two_level_chain();
        let q = MultiDotQuery {
            lo: 0,
            hi: 2,
            attr: RetAttr::Ret1,
        };
        let mut v = bfs_multilevel(&levels, &q, true, &ExecOptions::default())
            .unwrap()
            .values;
        v.sort_unstable();
        // Dedup between levels: persons {0,1,2,3} once each, hobbies
        // {0,1,2} once each.
        assert_eq!(v, vec![0, 100, 200]);
    }

    #[test]
    fn single_level_multidot_equals_plain_retrieve() {
        let levels = two_level_chain();
        let q = MultiDotQuery {
            lo: 0,
            hi: 2,
            attr: RetAttr::Ret1,
        };
        let single = &levels[..1];
        let mut a = execute_multilevel(single, Strategy::Dfs, &q, &ExecOptions::default())
            .unwrap()
            .values;
        let plain = RetrieveQuery {
            lo: 0,
            hi: 2,
            attr: RetAttr::Ret1,
        };
        let mut b = strategies::execute_retrieve(
            &levels[0],
            Strategy::Dfs,
            &plain,
            &ExecOptions::default(),
        )
        .unwrap()
        .values;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn deep_strategies_reject_cached_modes() {
        let levels = two_level_chain();
        let q = MultiDotQuery {
            lo: 0,
            hi: 1,
            attr: RetAttr::Ret1,
        };
        assert!(
            execute_multilevel(&levels, Strategy::DfsCache, &q, &ExecOptions::default()).is_err()
        );
    }

    #[test]
    fn dangling_intermediate_reference_is_reported() {
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        let level0 = DatabaseSpec {
            parents: vec![ObjectSpec {
                key: 0,
                rets: [0; 3],
                dummy: "g".into(),
                children: vec![c(99)], // no such person at level 1
            }],
            child_rels: vec![vec![SubobjectSpec {
                oid: c(99),
                rets: [0; 3],
                dummy: "p".into(),
            }]],
        };
        let level1 = DatabaseSpec {
            parents: vec![ObjectSpec {
                key: 0,
                rets: [0; 3],
                dummy: "p".into(),
                children: vec![],
            }],
            child_rels: vec![vec![]],
        };
        let levels = vec![
            CorDatabase::build_standard(pool(), &level0, None).unwrap(),
            CorDatabase::build_standard(pool(), &level1, None).unwrap(),
        ];
        let q = MultiDotQuery {
            lo: 0,
            hi: 0,
            attr: RetAttr::Ret1,
        };
        assert!(matches!(
            dfs_multilevel(&levels, &q),
            Err(CorError::DanglingOid(_))
        ));
    }
}
