//! DFSCACHE (Sec. 3.2).
//!
//! "Check if the value of the subobjects of 'elders' is cached. If so,
//! fetch the attribute name from the cache. Otherwise, fetch the
//! subobjects from the person relation (this is called materialization),
//! cache their values, and return the attribute name."
//!
//! Units are the caching granule; freshly materialized units are inserted
//! (cache maintenance), which is exactly what a breadth-first plan cannot
//! do — a merge join returns subobjects in OID order and "the identity of
//! the units would be lost" (the reason a caching BFS is unviable).

use crate::database::CorDatabase;
use crate::query::{extract_ret, RetrieveQuery, StrategyOutput};
use crate::unit::hashkey_of;
use crate::CorError;
use cor_relational::Oid;

/// Materialize one unit: fetch every member subobject, one index probe
/// each. Absent OIDs fail loudly — the paper's databases never dangle.
fn materialize_unit(db: &CorDatabase, children: &[Oid]) -> Result<Vec<Vec<u8>>, CorError> {
    children
        .iter()
        .map(|&oid| {
            db.fetch_child_record(oid)?
                .ok_or(CorError::DanglingOid(oid))
        })
        .collect()
}

/// Run a retrieve depth-first through the unit-value cache (whichever
/// placement the database was built with).
pub fn dfs_cache(db: &CorDatabase, query: &RetrieveQuery) -> Result<StrategyOutput, CorError> {
    if db.has_inside_cache() {
        return dfs_cache_inside(db, query);
    }
    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = db.parents_in_range(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    let mut values = Vec::new();
    for (_key, children) in &parents {
        if children.is_empty() {
            continue;
        }
        let hashkey = hashkey_of(children);
        let cached = db.cache_mut()?.probe(hashkey)?;
        match cached {
            Some(records) => {
                for rec in &records {
                    values.push(extract_ret(rec, query.attr)?);
                }
            }
            None => {
                // Materialize the unit, return its values, and cache it.
                let records = materialize_unit(db, children)?;
                for rec in &records {
                    values.push(extract_ret(rec, query.attr)?);
                }
                db.cache_mut()?.insert(hashkey, children, &records)?;
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

/// Inside-placement variant (Sec. 2.3): the cached copy arrives for free
/// with the scanned object tuple; misses materialize and write the copy
/// back into the tuple; nothing is shared between objects — the structural
/// weaknesses the paper cites when dismissing this placement.
fn dfs_cache_inside(db: &CorDatabase, query: &RetrieveQuery) -> Result<StrategyOutput, CorError> {
    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = db.parents_in_range_cached(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    let mut values = Vec::new();
    for (key, children, cached) in &parents {
        if children.is_empty() {
            continue;
        }
        match cached {
            Some(records) => {
                db.inside_touch(*key);
                for rec in records {
                    values.push(extract_ret(rec, query.attr)?);
                }
            }
            None => {
                db.inside_miss();
                let records = materialize_unit(db, children)?;
                for rec in &records {
                    values.push(extract_ret(rec, query.attr)?);
                }
                db.inside_store(*key, &records)?;
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
