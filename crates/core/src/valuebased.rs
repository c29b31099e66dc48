//! The value-based primary representation (Sec. 2.2.1) — the right column
//! of the representation matrix.
//!
//! "Subobjects are stored directly in the objects that reference them...
//! when a subobject is shared by more than one object we need to replicate
//! its value wherever required." (The NF² model and EXTRA's `own` type
//! support this representation.)
//!
//! Retrieval is a single ParentRel scan — the object "contains all the
//! information about its subobjects", so caching and clustering add
//! nothing (the shaded cells of Fig. 1). The price is paid on update:
//! every replica of a shared subobject must be located and rewritten.
//! Locating replicas uses an in-memory replica catalog (the kind of
//! ownership bookkeeping an NF² system keeps); the page writes to each
//! referencing object are charged as real I/O.

use crate::cache::{decode_unit_value, encode_unit_value};
use crate::database::{DatabaseSpec, SubobjectSpec};
use crate::query::{extract_ret, RetrieveQuery, StrategyOutput, UpdateQuery};
use crate::CorError;
use cor_access::{decode, encode, BTreeFile, DEFAULT_FILL};
use cor_pagestore::{BufferPool, IoDelta};
use cor_relational::{Oid, RelId, Schema, Tuple, Value, ValueType};
use std::collections::HashMap;
use std::sync::Arc;

/// Relation id of the value-based ParentRel.
pub const VALUE_PARENT_REL: RelId = 3;

/// Encoded `(key, record)` pairs ready for a bulk load.
type LoadEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Schema of the value-based ParentRel: subobject values are inlined in
/// the `members` byte column (full child records, replicated per
/// referencing object).
pub fn value_parent_schema() -> Schema {
    Schema::new(&[
        ("oid", ValueType::Oid),
        ("ret1", ValueType::Int),
        ("ret2", ValueType::Int),
        ("ret3", ValueType::Int),
        ("dummy", ValueType::Str),
        ("members", ValueType::Bytes),
    ])
}

/// A loaded value-based database.
pub struct ValueDatabase {
    pool: Arc<BufferPool>,
    parent: BTreeFile,
    /// Replica catalog: which parents hold a copy of each subobject.
    replicas: HashMap<Oid, Vec<u64>>,
    parent_schema: Schema,
    parent_count: u64,
}

impl ValueDatabase {
    /// Build the value-based representation from the same logical spec the
    /// OID representation uses: every referenced subobject's record is
    /// inlined (replicated) into each referencing object.
    pub fn build(pool: Arc<BufferPool>, spec: &DatabaseSpec) -> Result<Self, CorError> {
        let pschema = value_parent_schema();
        let cschema = crate::database::child_schema();

        // Index the subobject records once for inlining.
        let mut records: HashMap<Oid, Vec<u8>> = HashMap::new();
        for rel in &spec.child_rels {
            for s in rel {
                records.insert(s.oid, encode(&cschema, &child_tuple(s))?);
            }
        }

        let mut replicas: HashMap<Oid, Vec<u64>> = HashMap::new();
        let entries: Result<LoadEntries, CorError> = spec
            .parents
            .iter()
            .map(|o| {
                let inlined: Vec<Vec<u8>> = o
                    .children
                    .iter()
                    .map(|oid| {
                        replicas.entry(*oid).or_default().push(o.key);
                        records.get(oid).cloned().ok_or(CorError::DanglingOid(*oid))
                    })
                    .collect::<Result<_, _>>()?;
                let tuple = Tuple::new(vec![
                    Value::Oid(Oid::new(VALUE_PARENT_REL, o.key)),
                    Value::Int(o.rets[0]),
                    Value::Int(o.rets[1]),
                    Value::Int(o.rets[2]),
                    Value::Str(o.dummy.clone()),
                    Value::Bytes(encode_unit_value(&inlined)),
                ]);
                let key = Oid::new(VALUE_PARENT_REL, o.key).to_key_bytes().to_vec();
                Ok((key, encode(&pschema, &tuple)?))
            })
            .collect();
        let parent = BTreeFile::bulk_load(Arc::clone(&pool), 10, entries?, DEFAULT_FILL)?;

        Ok(ValueDatabase {
            pool,
            parent,
            replicas,
            parent_schema: pschema,
            parent_count: spec.parents.len() as u64,
        })
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// ParentRel cardinality.
    pub fn parent_count(&self) -> u64 {
        self.parent_count
    }

    /// Number of replicas of `oid` (diagnostic; equals the number of
    /// objects sharing the subobject).
    pub fn replica_count(&self, oid: Oid) -> usize {
        self.replicas.get(&oid).map_or(0, |v| v.len())
    }

    /// Run a retrieve: one ParentRel range scan, everything inline.
    pub fn run_retrieve(&self, query: &RetrieveQuery) -> Result<StrategyOutput, CorError> {
        let stats = self.pool.stats().clone();
        let s0 = stats.snapshot();
        let lo_k = Oid::new(VALUE_PARENT_REL, query.lo).to_key_bytes();
        let hi_k = Oid::new(VALUE_PARENT_REL, query.hi).to_key_bytes();
        let mut values = Vec::new();
        self.parent.visit_range(&lo_k, &hi_k, |_, rec| {
            let t = decode(&self.parent_schema, rec)?;
            let members = t.get(5).as_bytes().expect("members column");
            for child_rec in decode_unit_value(members).expect("inlined records decode") {
                values.push(extract_ret(&child_rec, query.attr)?);
            }
            Ok::<(), CorError>(())
        })?;
        let s1 = stats.snapshot();
        // All I/O is object access: the subobjects travel with the object.
        Ok(StrategyOutput {
            values,
            par_io: s1.since(&s0),
            child_io: IoDelta::default(),
        })
    }

    /// Update one `ret` attribute of a subobject: every replica is
    /// rewritten in place. Returns how many replicas were touched.
    pub fn update_child_ret(&self, oid: Oid, ret_idx: usize, v: i64) -> Result<usize, CorError> {
        assert!(ret_idx < 3);
        let Some(parent_keys) = self.replicas.get(&oid) else {
            return Ok(0);
        };
        let cschema = crate::database::child_schema();
        for &pk in parent_keys {
            let pkey = Oid::new(VALUE_PARENT_REL, pk).to_key_bytes();
            let rec = self
                .parent
                .get(&pkey)?
                .ok_or(CorError::DanglingOid(Oid::new(VALUE_PARENT_REL, pk)))?;
            let mut t = decode(&self.parent_schema, &rec)?;
            let members = t.get(5).as_bytes().expect("members column");
            let mut children = decode_unit_value(members).expect("inlined records decode");
            for child_rec in &mut children {
                let ct = decode(&cschema, child_rec)?;
                if ct.get(0).as_oid() == Some(oid) {
                    let mut ct = ct;
                    ct.set(1 + ret_idx, Value::Int(v));
                    *child_rec = encode(&cschema, &ct)?;
                }
            }
            t.set(5, Value::Bytes(encode_unit_value(&children)));
            self.parent
                .update(&pkey, &encode(&self.parent_schema, &t)?)?;
        }
        Ok(parent_keys.len())
    }

    /// Apply an update query, returning the I/O spent (the replica
    /// rewrites are the whole story here).
    pub fn apply_update(&self, update: &UpdateQuery) -> Result<IoDelta, CorError> {
        let before = self.pool.stats().snapshot();
        for &oid in &update.targets {
            self.update_child_ret(oid, 0, update.new_ret1)?;
        }
        Ok(self.pool.stats().snapshot().since(&before))
    }
}

fn child_tuple(s: &SubobjectSpec) -> Tuple {
    Tuple::new(vec![
        Value::Oid(s.oid),
        Value::Int(s.rets[0]),
        Value::Int(s.rets[1]),
        Value::Int(s.rets[2]),
        Value::Str(s.dummy.clone()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{ObjectSpec, CHILD_REL_BASE};
    use crate::query::RetAttr;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    fn tiny_spec() -> DatabaseSpec {
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        let child = |k: u64| SubobjectSpec {
            oid: c(k),
            rets: [10 * k as i64, 0, 0],
            dummy: "c".repeat(8),
        };
        DatabaseSpec {
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
                    children: vec![c(1), c(2)],
                },
                ObjectSpec {
                    key: 2,
                    rets: [0; 3],
                    dummy: "p".into(),
                    children: vec![],
                },
            ],
            child_rels: vec![(0..3).map(child).collect()],
        }
    }

    #[test]
    fn retrieve_returns_replicated_values() {
        let db = ValueDatabase::build(pool(16), &tiny_spec()).unwrap();
        let q = RetrieveQuery {
            lo: 0,
            hi: 2,
            attr: RetAttr::Ret1,
        };
        let out = db.run_retrieve(&q).unwrap();
        let mut v = out.values;
        v.sort_unstable();
        // Subobject 1 (ret1 = 10) is shared: appears twice.
        assert_eq!(v, vec![0, 10, 10, 20]);
        assert_eq!(out.child_io.total(), 0, "value-based pays no subobject I/O");
    }

    #[test]
    fn replica_counts_match_sharing() {
        let db = ValueDatabase::build(pool(16), &tiny_spec()).unwrap();
        assert_eq!(db.replica_count(Oid::new(CHILD_REL_BASE, 0)), 1);
        assert_eq!(db.replica_count(Oid::new(CHILD_REL_BASE, 1)), 2);
        assert_eq!(db.replica_count(Oid::new(CHILD_REL_BASE, 9)), 0);
    }

    #[test]
    fn update_rewrites_every_replica() {
        let db = ValueDatabase::build(pool(16), &tiny_spec()).unwrap();
        let touched = db
            .update_child_ret(Oid::new(CHILD_REL_BASE, 1), 0, 777)
            .unwrap();
        assert_eq!(touched, 2);
        let q = RetrieveQuery {
            lo: 0,
            hi: 2,
            attr: RetAttr::Ret1,
        };
        let mut v = db.run_retrieve(&q).unwrap().values;
        v.sort_unstable();
        assert_eq!(
            v,
            vec![0, 20, 777, 777],
            "both replicas must show the new value"
        );
    }

    #[test]
    fn update_of_unreferenced_subobject_is_free() {
        let db = ValueDatabase::build(pool(16), &tiny_spec()).unwrap();
        let before = db.pool().stats().snapshot();
        assert_eq!(
            db.update_child_ret(Oid::new(CHILD_REL_BASE, 9), 0, 1)
                .unwrap(),
            0
        );
        assert_eq!(db.pool().stats().snapshot().since(&before).total(), 0);
    }

    #[test]
    fn childless_object_contributes_nothing() {
        let db = ValueDatabase::build(pool(16), &tiny_spec()).unwrap();
        let q = RetrieveQuery {
            lo: 2,
            hi: 2,
            attr: RetAttr::Ret1,
        };
        assert!(db.run_retrieve(&q).unwrap().values.is_empty());
    }

    #[test]
    fn update_costs_scale_with_replication() {
        // Same logical data twice: once with sharing, once without. The
        // shared build must touch more pages per update.
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        let child = |k: u64| SubobjectSpec {
            oid: c(k),
            rets: [0, 0, 0],
            dummy: "c".repeat(40),
        };
        let shared = DatabaseSpec {
            parents: (0..200)
                .map(|k| ObjectSpec {
                    key: k,
                    rets: [0; 3],
                    dummy: "p".repeat(30),
                    children: vec![c(0), c(1)], // everyone shares two subobjects
                })
                .collect(),
            child_rels: vec![(0..2).map(child).collect()],
        };
        let db = ValueDatabase::build(pool(8), &shared).unwrap();
        db.pool().flush_and_clear().unwrap();
        let upd = UpdateQuery {
            targets: vec![c(0)],
            new_ret1: 5,
        };
        let io = db.apply_update(&upd).unwrap();
        assert!(
            io.total() > 20,
            "200 replicas across many pages must cost real I/O (got {})",
            io.total()
        );
    }
}
