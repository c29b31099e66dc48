//! Query processing over the procedural representation.
//!
//! The caching mode (none / outside values / outside OIDs / inside values)
//! is a property of the database build — the matrix point being studied —
//! so one entry point dispatches on it. All modes answer the same query
//! shape as the OID-representation strategies:
//!
//! ```text
//! retrieve (ParentRel.members.attr) where lo <= ParentRel.OID <= hi
//! ```

use crate::procedural::database::{ProcCaching, ProcDatabase};
use crate::procedural::pcache::CachedResult;
use crate::query::{extract_ret, RetAttr, RetrieveQuery, StrategyOutput, UpdateQuery};
use crate::CorError;
use cor_pagestore::IoDelta;
use cor_relational::Oid;

/// Run one retrieve over a procedural database under its configured
/// caching mode.
///
/// This is the low-level dispatch behind `cor::Engine::retrieve` for
/// procedural engines.
pub fn execute_proc_retrieve(
    db: &ProcDatabase,
    query: &RetrieveQuery,
) -> Result<StrategyOutput, CorError> {
    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = db.parents_in_range(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    let mut values = Vec::new();
    for row in &parents {
        match db.caching() {
            ProcCaching::None => {
                for (_, rec) in db.execute_stored(&row.members)? {
                    values.push(extract_ret(&rec, query.attr)?);
                }
            }
            ProcCaching::OutsideValues(_) => {
                let hashkey = row.members.hashkey();
                let cached = db.outside_cache().probe(hashkey)?;
                match cached {
                    Some(CachedResult::Values(records)) => {
                        for rec in &records {
                            values.push(extract_ret(rec, query.attr)?);
                        }
                    }
                    Some(CachedResult::Oids(_)) => {
                        unreachable!("values-mode cache holds values")
                    }
                    None => {
                        let result = db.execute_stored(&row.members)?;
                        let records: Vec<Vec<u8>> =
                            result.into_iter().map(|(_, rec)| rec).collect();
                        for rec in &records {
                            values.push(extract_ret(rec, query.attr)?);
                        }
                        db.outside_cache()
                            .insert(&row.members, &CachedResult::Values(records))?;
                    }
                }
            }
            ProcCaching::OutsideOids(_) => {
                let hashkey = row.members.hashkey();
                let cached = db.outside_cache().probe(hashkey)?;
                match cached {
                    Some(CachedResult::Oids(oids)) => {
                        // Identities cached; values fetched fresh — which
                        // is why value-only updates leave this cache valid.
                        for oid in oids {
                            let rec = fetch_by_oid(db, oid)?;
                            values.push(extract_ret(&rec, query.attr)?);
                        }
                    }
                    Some(CachedResult::Values(_)) => {
                        unreachable!("oids-mode cache holds oids")
                    }
                    None => {
                        let result = db.execute_stored(&row.members)?;
                        let oids: Vec<Oid> = result.iter().map(|(o, _)| *o).collect();
                        for (_, rec) in &result {
                            values.push(extract_ret(rec, query.attr)?);
                        }
                        db.outside_cache()
                            .insert(&row.members, &CachedResult::Oids(oids))?;
                    }
                }
            }
            ProcCaching::InsideValues(_) => match &row.cached {
                Some(records) => {
                    db.inside_touch(row.key);
                    for rec in records {
                        values.push(extract_ret(rec, query.attr)?);
                    }
                }
                None => {
                    let result = db.execute_stored(&row.members)?;
                    let records: Vec<Vec<u8>> = result.into_iter().map(|(_, rec)| rec).collect();
                    for rec in &records {
                        values.push(extract_ret(rec, query.attr)?);
                    }
                    db.inside_store(row.key, &records)?;
                }
            },
        }
    }
    let s2 = stats.snapshot();

    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}

fn fetch_by_oid(db: &ProcDatabase, oid: Oid) -> Result<Vec<u8>, CorError> {
    db.child_tree(oid.rel)?
        .get(&oid.to_key_bytes())?
        .ok_or(CorError::DanglingOid(oid))
}

/// Apply an update to a procedural database (in-place subobject update
/// plus whatever invalidation the caching mode requires), returning the
/// I/O spent.
pub fn apply_proc_update(db: &ProcDatabase, update: &UpdateQuery) -> Result<IoDelta, CorError> {
    let before = db.pool().stats().snapshot();
    for &oid in &update.targets {
        db.update_child_ret(oid, RetAttr::Ret1, update.new_ret1)?;
    }
    Ok(db.pool().stats().snapshot().since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::CHILD_REL_BASE;
    use crate::procedural::database::tiny_spec;
    use cor_pagestore::BufferPool;
    use std::sync::Arc;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(32).build())
    }

    fn run(db: &ProcDatabase, lo: u64, hi: u64) -> Vec<i64> {
        let q = RetrieveQuery {
            lo,
            hi,
            attr: RetAttr::Ret1,
        };
        let mut v = execute_proc_retrieve(db, &q).unwrap().values;
        v.sort_unstable();
        v
    }

    /// Expected ret1 values for the tiny_spec parents 0..=3:
    /// p0, p1 -> keys 0..3 (0,10,20,30 each), p2 -> keys 4..7
    /// (40..70), p3 -> ret1 in 80..=200 (80..110).
    fn expected_all() -> Vec<i64> {
        let mut v = vec![
            0, 10, 20, 30, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110,
        ];
        v.sort_unstable();
        v
    }

    #[test]
    fn every_caching_mode_computes_the_same_answer() {
        let spec = tiny_spec();
        for caching in [
            ProcCaching::None,
            ProcCaching::OutsideValues(8),
            ProcCaching::OutsideOids(8),
            ProcCaching::InsideValues(8),
        ] {
            let db = ProcDatabase::build(pool(), &spec, caching).unwrap();
            assert_eq!(run(&db, 0, 3), expected_all(), "{caching:?} cold");
            // Warm pass (cache populated) must agree.
            assert_eq!(run(&db, 0, 3), expected_all(), "{caching:?} warm");
        }
    }

    #[test]
    fn outside_value_cache_hits_after_warmup() {
        let db = ProcDatabase::build(pool(), &tiny_spec(), ProcCaching::OutsideValues(8)).unwrap();
        run(&db, 0, 3);
        run(&db, 0, 3);
        let c = db.cache_counters();
        assert!(c.hits > 0);
        // p0 and p1 share the stored query: only 3 distinct queries cached.
        assert!(c.insertions <= 3, "insertions = {}", c.insertions);
    }

    #[test]
    fn updates_are_visible_under_every_mode() {
        let spec = tiny_spec();
        for caching in [
            ProcCaching::None,
            ProcCaching::OutsideValues(8),
            ProcCaching::OutsideOids(8),
            ProcCaching::InsideValues(8),
        ] {
            let db = ProcDatabase::build(pool(), &spec, caching).unwrap();
            run(&db, 0, 3); // warm caches
                            // Subobject 2 (ret1 = 20, in p0/p1's range): set ret1 = 25.
            let upd = UpdateQuery {
                targets: vec![Oid::new(CHILD_REL_BASE, 2)],
                new_ret1: 25,
            };
            apply_proc_update(&db, &upd).unwrap();
            let got = run(&db, 0, 1);
            let mut expect = vec![0, 10, 25, 30, 0, 10, 25, 30];
            expect.sort_unstable();
            assert_eq!(got, expect, "{caching:?} served stale data");
        }
    }

    #[test]
    fn membership_change_updates_ret_range_queries() {
        // Moving a subobject's ret1 into p3's 80..=200 range must show up
        // in p3's result under every caching mode.
        let spec = tiny_spec();
        for caching in [
            ProcCaching::None,
            ProcCaching::OutsideValues(8),
            ProcCaching::OutsideOids(8),
            ProcCaching::InsideValues(8),
        ] {
            let db = ProcDatabase::build(pool(), &spec, caching).unwrap();
            let before = run(&db, 3, 3);
            assert_eq!(before, vec![80, 90, 100, 110]);
            let upd = UpdateQuery {
                targets: vec![Oid::new(CHILD_REL_BASE, 0)],
                new_ret1: 150,
            };
            apply_proc_update(&db, &upd).unwrap();
            let after = run(&db, 3, 3);
            assert_eq!(
                after,
                vec![80, 90, 100, 110, 150],
                "{caching:?} missed the new member"
            );
        }
    }

    #[test]
    fn oid_cache_survives_value_update_but_returns_fresh_values() {
        let db = ProcDatabase::build(pool(), &tiny_spec(), ProcCaching::OutsideOids(8)).unwrap();
        run(&db, 2, 2); // cache p2's OID list (keys 4..7)
        let inserted = db.cache_counters().insertions;
        // ret1 of key 5: 50 -> 55. Key-range membership is unchanged, so
        // the OID list stays cached, yet the fresh value must be returned.
        let upd = UpdateQuery {
            targets: vec![Oid::new(CHILD_REL_BASE, 5)],
            new_ret1: 55,
        };
        apply_proc_update(&db, &upd).unwrap();
        assert_eq!(run(&db, 2, 2), vec![40, 55, 60, 70]);
        let c = db.cache_counters();
        assert_eq!(c.invalidations, 0, "membership unchanged: no invalidation");
        assert_eq!(c.insertions, inserted, "no re-materialization needed");
        assert!(c.hits > 0);
    }
}
