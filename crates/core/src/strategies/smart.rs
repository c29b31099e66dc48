//! SMART (Sec. 5.3).
//!
//! "When the query has a low NumTop, use DFSCACHE, and maintain the cache.
//! However, if NumTop > N (where N = 300 in our experiments), use a
//! breadth-first strategy, and do not try to maintain cache. In other
//! words, scan the NumTop tuples and collect into temp the OID's whose
//! units are not cached; and then implement the merge-join. The status of
//! the cache remains invariant during the execution of the breadth-first
//! strategy."
//!
//! The breadth-first arm's temporary is "no larger than the temporary used
//! in BFS (since some units may be cached, and hence their OID's need not
//! be included)". One refinement over the paper's sketch: exploiting the
//! cache only pays when the shrunken temporary changes the join economics
//! (a merge join scans every ChildRel leaf regardless, so pulling cached
//! units one page at a time on top of it is wasted I/O). The arm therefore
//! estimates both plans — read cached units + join the rest, vs. join
//! everything — and takes the cheaper ([`cost::smart_uses_cache`]), which
//! is what "make the best use of caching" demands. The cache presence
//! check is a free in-memory directory lookup either way, so the decision
//! itself costs nothing.

use super::{bfs::join_fetch, dfs_cache, ExecOptions};
use crate::cost;
use crate::database::CorDatabase;
use crate::query::{extract_ret, RetrieveQuery, StrategyOutput};
use crate::unit::hashkey_of;
use crate::CorError;
use cor_pagestore::PAGE_SIZE;
use cor_relational::{Oid, RelId, OID_BYTES};
use std::collections::{BTreeMap, HashSet};

/// Run a retrieve under the SMART hybrid.
pub fn smart(
    db: &CorDatabase,
    query: &RetrieveQuery,
    opts: &ExecOptions,
) -> Result<StrategyOutput, CorError> {
    if query.num_top() <= opts.smart_threshold {
        return dfs_cache(db, query);
    }

    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = db.parents_in_range(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    // Classify each qualifying object's unit through the in-memory cache
    // directory (no I/O).
    let mut cached_refs: Vec<(u64, &Vec<Oid>)> = Vec::new(); // (hashkey, children)
    let mut distinct_cached: HashSet<u64> = HashSet::new();
    let mut uncached: BTreeMap<RelId, Vec<Oid>> = BTreeMap::new();
    let mut all: BTreeMap<RelId, Vec<Oid>> = BTreeMap::new();
    {
        let cache = db.cache_mut()?;
        for (_key, children) in &parents {
            if children.is_empty() {
                continue;
            }
            for &oid in children {
                all.entry(oid.rel).or_default().push(oid);
            }
            let hashkey = hashkey_of(children);
            if cache.is_cached(hashkey) {
                cached_refs.push((hashkey, children));
                distinct_cached.insert(hashkey);
            } else {
                for &oid in children {
                    uncached.entry(oid.rel).or_default().push(oid);
                }
            }
        }
    }

    // Each relation's join, with its temporary sized from the OID count
    // before it is built.
    let estimate = |groups: &BTreeMap<RelId, Vec<Oid>>| -> Result<u64, CorError> {
        groups
            .iter()
            .map(|(rel, oids)| {
                let tree = db.child_tree(*rel)?;
                let n = oids.len();
                Ok(cost::bfs_join_estimate(
                    n as u64,
                    (n * OID_BYTES / PAGE_SIZE + 1) as u64,
                    tree.height().into(),
                    tree.leaf_pages().into(),
                    opts.sort_work_mem as u64,
                ))
            })
            .sum()
    };
    let exploit_cache = cost::smart_uses_cache(
        distinct_cached.len() as u64,
        estimate(&uncached)?,
        estimate(&all)?,
    );

    let mut values = Vec::new();
    if exploit_cache {
        // Read cached unit values (real I/O against the Cache relation;
        // repeated references to a shared unit are absorbed by the buffer).
        let mut cache = db.cache_mut()?;
        for (hashkey, _children) in &cached_refs {
            let records = cache
                .probe(*hashkey)?
                .expect("directory said cached; cache is invariant during the query");
            for rec in &records {
                values.push(extract_ret(rec, query.attr)?);
            }
        }
        drop(cache);
        for (rel, oids) in &uncached {
            join_fetch(db, *rel, oids, query.attr, false, opts, &mut values)?;
        }
    } else {
        // Cache does not pay here: plain breadth-first over everything.
        // The cache stays invariant either way.
        for (rel, oids) in &all {
            join_fetch(db, *rel, oids, query.attr, false, opts, &mut values)?;
        }
    }
    let s2 = stats.snapshot();

    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}
