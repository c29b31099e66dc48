//! DFSCLUST (Sec. 3.3).
//!
//! The database stores "all objects and their subobjects in one relation
//! called cluster", B-tree-structured on `cluster#`, with a static ISAM
//! index on OID for random access.
//!
//! The retrieve scans the cluster range covering the qualifying objects.
//! That single scan returns the objects **and** every subobject clustered
//! with them — which is why the paper's `ParCost` *rises* as clustering
//! improves (more subobjects interleaved between consecutive objects) while
//! `ChildCost` falls (Fig. 5a). Subobjects clustered elsewhere cost one
//! ISAM probe plus a ClusterRel access each; with `OverlapFactor > 1` a
//! unit's subobjects scatter across many foreign clusters and these random
//! accesses dominate (Fig. 7).

use crate::database::{cluster_key, parse_cluster_key, CorDatabase};
use crate::query::{extract_ret, parent_children, RetrieveQuery, StrategyOutput};
use crate::CorError;
use cor_obs::{Phase, PhaseGuard};
use cor_relational::{Oid, OidMap};

/// Run a retrieve depth-first over the clustered representation.
pub fn dfs_clust(db: &CorDatabase, query: &RetrieveQuery) -> Result<StrategyOutput, CorError> {
    let (cluster, _oid_index) = db.cluster()?;
    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();

    // One range scan picks up the qualifying objects and their physically
    // clustered subobjects together.
    let lo_k = cluster_key(query.lo, false, Oid::new(0, 0));
    let hi_k = cluster_key(query.hi, true, Oid::new(u16::MAX, u64::MAX));
    let mut parents: Vec<(u64, Vec<Oid>)> = Vec::new();
    // Every subobject seen so far — by the scan or on a harvested foreign
    // leaf — keeps only the projected attribute, read under the page pin:
    // no record is copied out.
    let mut harvested: OidMap<i64> = OidMap::default();
    // The whole range scan — objects and co-clustered subobjects alike —
    // is one physical cluster traversal.
    let _scan_phase = PhaseGuard::enter(Phase::ClusterScan);
    cluster.visit_range(&lo_k, &hi_k, |k, rec| {
        let (_, is_child, oid) = parse_cluster_key(k)?;
        if is_child {
            harvested.insert(oid, extract_ret(rec, query.attr)?);
        } else {
            let children = parent_children(rec)?;
            parents.push((oid.key, children));
        }
        Ok::<(), CorError>(())
    })?;
    let s1 = stats.snapshot();

    let mut values = Vec::new();
    for (_key, children) in &parents {
        for &oid in children {
            if let Some(&v) = harvested.get(&oid) {
                values.push(v);
                continue;
            }
            // Clustered with a parent outside the scanned range: random
            // access through the OID index, whose TID-style payload points
            // straight at the leaf page. The fetched page holds the rest
            // of the foreign unit, which we harvest at once — the
            // Sec. 3.3 case-[2] behaviour ("their subobjects are still
            // physically clustered, albeit elsewhere, and can be fetched
            // in one random access") — so a later reference to any child
            // on that page is answered from the map with no further probe.
            db.visit_child_page(oid, |child, rec| {
                harvested.insert(child, extract_ret(rec, query.attr)?);
                Ok(())
            })?;
            let v = harvested.get(&oid).ok_or(CorError::DanglingOid(oid))?;
            values.push(*v);
        }
    }
    let s2 = stats.snapshot();

    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{DatabaseSpec, ObjectSpec, SubobjectSpec, CHILD_REL_BASE};
    use crate::query::RetAttr;
    use crate::ClusterAssignment;
    use cor_pagestore::BufferPool;
    use std::sync::Arc;

    fn pins(db: &CorDatabase) -> u64 {
        let shards = db.pool().telemetry().expect("telemetry-enabled pool");
        shards.iter().map(|s| s.probes()).sum()
    }

    /// Sec. 3.3 case [2]: one random access to a foreign unit's page brings
    /// every subobject on that page along. Objects 0 and 1 reference four
    /// subobjects that are all clustered with object 30; the first
    /// reference pays the ISAM probe and the page read, the other three —
    /// object 1's whole unit among them — are answered from the harvest.
    #[test]
    fn one_foreign_probe_harvests_every_child_on_its_page() {
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        let spec = DatabaseSpec {
            parents: (0..40)
                .map(|key| ObjectSpec {
                    key,
                    rets: [0; 3],
                    dummy: "p".repeat(40),
                    children: match key {
                        0 => vec![c(60), c(61)],
                        1 => vec![c(62), c(63)],
                        _ => vec![c(2 * key), c(2 * key + 1)],
                    },
                })
                .collect(),
            child_rels: vec![(0..80)
                .map(|k| SubobjectSpec {
                    oid: c(k),
                    rets: [k as i64, -(k as i64), 0],
                    dummy: "c".repeat(30),
                })
                .collect()],
        };
        let assignment = ClusterAssignment::from_pairs((0..80).map(|k| match k {
            60..=63 => (c(k), 30),
            _ => (c(k), k / 2),
        }));
        let pool = Arc::new(BufferPool::builder().capacity(64).telemetry(true).build());
        let db = CorDatabase::build_clustered(pool, &spec, &assignment).unwrap();
        let mut co_located = Vec::new();
        db.visit_child_page(c(60), |child, _| {
            co_located.push(child);
            Ok(())
        })
        .unwrap();
        for k in 60..=63 {
            assert!(co_located.contains(&c(k)), "child {k} shares 60's page");
        }
        let (_, oid_index) = db.cluster().unwrap();

        let p0 = pins(&db);
        db.parents_in_range(0, 1).unwrap();
        let scan_pins = pins(&db) - p0;

        let q = RetrieveQuery {
            lo: 0,
            hi: 1,
            attr: RetAttr::Ret2,
        };
        let p0 = pins(&db);
        let out = dfs_clust(&db, &q).unwrap();
        assert_eq!(out.values, vec![-60, -61, -62, -63]);
        // One ISAM probe — a descent that ends by reading its leaf, then
        // the leaf lookup — and one visit of the foreign page.
        let isam_probe = u64::from(oid_index.height()) + 1;
        assert_eq!(
            pins(&db) - p0,
            scan_pins + isam_probe + 1,
            "a co-located child must not be probed again"
        );
    }
}
