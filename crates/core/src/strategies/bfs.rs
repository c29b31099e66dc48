//! BFS and BFSNODUP (Sec. 3.1, strategies \[2\] and \[3\]).
//!
//! "Collect the OID's from qualifying tuples of group into a temporary
//! relation temp ... next execute `retrieve (person.name) where person.OID
//! = temp.OID`." The temporary is a real heap file and is materialized
//! (its pages are forced), which is the "extra cost of forming the
//! temporary relation" that makes BFS slightly worse than DFS at low
//! NumTop. Page I/O is all the paper charges for it, so that is all it
//! costs here: the temporary is a [`HeapFile::temp`] — never write-ahead
//! logged, and its pages go back on the free list when the query ends.
//!
//! The join is chosen by cost ([`cost::bfs_join_plan`]): iterative
//! substitution (index probes) when the temporary is small, merge join
//! (sort the temporary, then co-scan the OID-ordered ChildRel leaves in
//! place) when it is large. "Whenever we talk of a competitive BFS
//! strategy, we imply a merge-join."
//!
//! With `dedup` (BFSNODUP) duplicates are eliminated while sorting the
//! temporary; with sharing (`ShareFactor > 1`) this shrinks the join input
//! but also changes the result multiset — each shared subobject is
//! returned once instead of once per referencing object.

use super::{ExecOptions, JoinChoice};
use crate::cost::{self, JoinPlan};
use crate::database::CorDatabase;
use crate::query::{extract_ret, RetAttr, RetrieveQuery, StrategyOutput};
use crate::CorError;
use cor_access::{external_sort, BTreeFile, HeapFile};
use cor_obs::{Phase, PhaseGuard};
use cor_relational::{Oid, RelId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Run a retrieve breadth-first.
pub fn bfs(
    db: &CorDatabase,
    query: &RetrieveQuery,
    dedup: bool,
    opts: &ExecOptions,
) -> Result<StrategyOutput, CorError> {
    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = db.parents_in_range(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    // Partition the collected OIDs by child relation (Sec. 6.2: with
    // NumChildRel relations, BFS runs one join per relation encountered).
    let mut by_rel: BTreeMap<RelId, Vec<Oid>> = BTreeMap::new();
    for (_key, children) in &parents {
        for &oid in children {
            by_rel.entry(oid.rel).or_default().push(oid);
        }
    }

    let mut values = Vec::new();
    for (rel, oids) in &by_rel {
        join_fetch(db, *rel, oids, query.attr, dedup, opts, &mut values)?;
    }
    let s2 = stats.snapshot();

    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}

/// Materialize `oids` into a temporary, join it against ChildRel `rel`,
/// and append the projected attribute values. Shared with SMART's
/// high-NumTop path.
pub(crate) fn join_fetch(
    db: &CorDatabase,
    rel: RelId,
    oids: &[Oid],
    attr: RetAttr,
    dedup: bool,
    opts: &ExecOptions,
    values: &mut Vec<i64>,
) -> Result<(), CorError> {
    if oids.is_empty() {
        return Ok(());
    }
    let tree = db.child_tree(rel)?;

    // Form the temporary relation (heap file of 10-byte OID records) and
    // materialize it — the paper charges BFS for temp formation.
    let temp = {
        let _phase = PhaseGuard::enter(Phase::TempBuild);
        let temp = HeapFile::temp(Arc::clone(db.pool()))?;
        let keys: Vec<_> = oids.iter().map(Oid::to_key_bytes).collect();
        temp.append_all(&keys)?;
        temp.flush()?;
        temp
    };

    if merge_chosen(opts, &temp, tree) {
        // Reading the temp back and sorting it is sort work; run spills
        // re-assert their own Sort bracket inside.
        let sorted = {
            let _phase = PhaseGuard::enter(Phase::Sort);
            external_sort(
                db.pool(),
                temp.scan().map(|(_, rec)| rec),
                opts.sort_work_mem,
                dedup,
            )?
        };
        // The co-scan of the OID-ordered ChildRel leaves is the join
        // proper (sort-stream pulls retag themselves as Sort).
        let _phase = PhaseGuard::enter(Phase::MergeJoin);
        tree.merge_scan(sorted, |_oid, rec| {
            values.push(extract_ret(rec, attr)?);
            Ok::<(), CorError>(())
        })?;
    } else {
        // Iterative substitution: probe per temp record, "fetched exactly
        // as in DFS" — so leave the probes to the index-level default
        // tags. BFSNODUP still dedups first.
        if dedup {
            let keys = {
                let _phase = PhaseGuard::enter(Phase::Sort);
                external_sort(
                    db.pool(),
                    temp.scan().map(|(_, rec)| rec),
                    opts.sort_work_mem,
                    true,
                )?
            };
            for key in keys {
                probe_one(tree, &key, attr, values)?;
            }
        } else {
            for (_, key) in temp.scan() {
                probe_one(tree, &key, attr, values)?;
            }
        }
    }
    Ok(())
}

/// Whether the join of `temp` against `tree` runs as a merge join: by
/// `opts.join` when forced, else by [`cost::bfs_join_plan`]. Shared with
/// multi-level BFS's intermediate levels.
pub(crate) fn merge_chosen(opts: &ExecOptions, temp: &HeapFile, tree: &BTreeFile) -> bool {
    match opts.join {
        JoinChoice::ForceMerge => true,
        JoinChoice::ForceIterative => false,
        JoinChoice::Auto => {
            cost::bfs_join_plan(
                temp.len(),
                temp.num_pages().into(),
                tree.height().into(),
                tree.leaf_pages().into(),
                opts.sort_work_mem as u64,
            ) == JoinPlan::Merge
        }
    }
}

fn probe_one(
    tree: &BTreeFile,
    key: &[u8],
    attr: RetAttr,
    values: &mut Vec<i64>,
) -> Result<(), CorError> {
    let v = tree
        .get_with(key, |rec| Ok::<_, CorError>(extract_ret(rec, attr)?))?
        .ok_or_else(|| CorError::DanglingOid(Oid::from_key_bytes(key).expect("oid key")))?;
    values.push(v);
    Ok(())
}
