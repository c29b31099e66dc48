//! The procedural-representation database (Sec. 2.1.1 / 2.3, the
//! \[JHIN88\] column of the representation matrix).
//!
//! ParentRel stores the *query text* identifying each object's subobjects
//! (as POSTGRES procedural attributes do), plus a `cached` byte column
//! used by **inside caching** — cached results stored "with the
//! referencing object", where "there can be no sharing of cached
//! information". **Outside caching** lives in a separate shared
//! [`super::pcache::ProcCache`].

use crate::cache::{decode_unit_value, encode_unit_value, CacheCounters, LruSet};
use crate::database::{load_by_oid, SubobjectSpec, CHILD_REL_BASE};
use crate::procedural::pcache::ProcCache;
use crate::procedural::predicate::StoredQuery;
use crate::query::{extract_ret, set_ret, RetAttr};
use crate::CorError;
use cor_access::{decode, encode, put_bytes, put_int, put_oid, BTreeFile, CodecError};
use cor_pagestore::BufferPool;
use cor_relational::{Oid, RelId, Schema, Value, ValueType};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// Relation id of the procedural ParentRel.
pub const PROC_PARENT_REL: RelId = 2;

/// Schema of the procedural ParentRel.
pub fn proc_parent_schema() -> Schema {
    Schema::new(&[
        ("oid", ValueType::Oid),
        ("ret1", ValueType::Int),
        ("ret2", ValueType::Int),
        ("ret3", ValueType::Int),
        ("dummy", ValueType::Str),
        ("members", ValueType::Str),  // the stored QUEL text
        ("cached", ValueType::Bytes), // inside-cached result (empty = none)
    ])
}

/// Logical contents of one procedural complex object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcObjectSpec {
    /// Primary key.
    pub key: u64,
    /// The three retrievable attributes.
    pub rets: [i64; 3],
    /// Pad field.
    pub dummy: String,
    /// The stored query identifying the subobjects.
    pub members: StoredQuery,
}

impl ProcObjectSpec {
    /// Append this object's procedural ParentRel record to `out`: the
    /// bytes [`encode`] gives its tuple under [`proc_parent_schema`], the
    /// stored query as its QUEL text and an empty `cached` column, and no
    /// tuple built.
    pub fn encode_record(&self, out: &mut Vec<u8>) {
        put_oid(out, Oid::new(PROC_PARENT_REL, self.key));
        self.rets.iter().for_each(|&r| put_int(out, r));
        put_bytes(out, self.dummy.as_bytes());
        put_bytes(out, self.members.to_quel().as_bytes());
        put_bytes(out, &[]);
    }
}

/// Logical contents of a procedural database.
#[derive(Debug, Clone, Default)]
pub struct ProcDatabaseSpec {
    /// Objects, ascending by key.
    pub parents: Vec<ProcObjectSpec>,
    /// Subobject relations, each ascending by OID.
    pub child_rels: Vec<Vec<SubobjectSpec>>,
}

/// Caching configuration for a procedural database (the cached-repr axis
/// crossed with the placement axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcCaching {
    /// No caching: execute the stored query every time.
    None,
    /// Outside cache of result values, bounded to this many entries.
    OutsideValues(usize),
    /// Outside cache of result OIDs, bounded to this many entries.
    OutsideOids(usize),
    /// Inside caching: values materialized into the parent tuple itself,
    /// bounded to this many parents holding a copy (cache space is disk
    /// space either way, so both placements honour `SizeCache`).
    InsideValues(usize),
}

/// One qualifying parent from a range scan.
#[derive(Debug, Clone)]
pub struct ProcParentRow {
    /// Primary key.
    pub key: u64,
    /// The stored query (parsed from the tuple's QUEL text).
    pub members: StoredQuery,
    /// Inside-cached result records, if any.
    pub cached: Option<Vec<Vec<u8>>>,
}

/// A loaded procedural-representation database.
pub struct ProcDatabase {
    pool: Arc<BufferPool>,
    parent: BTreeFile,
    children: Vec<BTreeFile>,
    caching: ProcCaching,
    outside: Option<Mutex<ProcCache>>,
    /// Inside caching bookkeeping: which parents hold a cached copy (LRU
    /// over parents), and which parents store which query (invalidation
    /// fan-out).
    inside_cached: Mutex<LruSet>,
    by_query: HashMap<u64, (StoredQuery, Vec<u64>)>,
    inside_counters: Mutex<CacheCounters>,
    parent_schema: Schema,
    parent_count: u64,
}

impl ProcDatabase {
    /// Build from a spec with the requested caching mode.
    pub fn build(
        pool: Arc<BufferPool>,
        spec: &ProcDatabaseSpec,
        caching: ProcCaching,
    ) -> Result<Self, CorError> {
        let pschema = proc_parent_schema();

        let mut by_query: HashMap<u64, (StoredQuery, Vec<u64>)> = HashMap::new();
        let parent = load_by_oid(&pool, &spec.parents, |o, rec| {
            by_query
                .entry(o.members.hashkey())
                .or_insert_with(|| (o.members.clone(), Vec::new()))
                .1
                .push(o.key);
            o.encode_record(rec);
            Ok(Oid::new(PROC_PARENT_REL, o.key).to_key_bytes())
        })?;
        let children = spec
            .child_rels
            .iter()
            .map(|rel| {
                load_by_oid(&pool, rel, |s, rec| {
                    s.encode_record(rec);
                    Ok(s.oid.to_key_bytes())
                })
            })
            .collect::<Result<_, _>>()?;

        let outside = match caching {
            ProcCaching::OutsideValues(cap) | ProcCaching::OutsideOids(cap) => {
                Some(Mutex::new(ProcCache::new(Arc::clone(&pool), cap)?))
            }
            _ => None,
        };

        Ok(ProcDatabase {
            pool,
            parent,
            children,
            caching,
            outside,
            inside_cached: Mutex::new(LruSet::default()),
            by_query,
            inside_counters: Mutex::new(CacheCounters::default()),
            parent_schema: pschema,
            parent_count: spec.parents.len() as u64,
        })
    }

    /// Snapshot this database for the engine catalog.
    pub fn save_state(&self) -> crate::persist::SavedProcDb {
        crate::persist::SavedProcDb {
            parent: self.parent.metadata(),
            children: self.children.iter().map(|c| c.metadata()).collect(),
            parent_schema: self.parent_schema.clone(),
            parent_count: self.parent_count,
            caching: self.caching,
            outside: self.outside.as_ref().map(|c| c.lock().save_state()),
        }
    }

    /// Reconstruct a database from a catalog snapshot over an
    /// already-recovered pool. The `by_query` invalidation index and the
    /// inside-holder set are rebuilt by scanning ParentRel — the stored
    /// QUEL texts and `cached` columns are the durable truth — and an
    /// outside cache is reconciled against its recovered hash relation.
    pub fn open_state(
        pool: Arc<BufferPool>,
        saved: &crate::persist::SavedProcDb,
    ) -> Result<Self, CorError> {
        let parent = BTreeFile::from_metadata(Arc::clone(&pool), saved.parent)?;
        let children = saved
            .children
            .iter()
            .map(|m| BTreeFile::from_metadata(Arc::clone(&pool), *m))
            .collect::<Result<Vec<_>, _>>()?;
        let outside = match (&saved.outside, saved.caching) {
            (Some(sc), ProcCaching::OutsideValues(_) | ProcCaching::OutsideOids(_)) => {
                let (c, _dropped) = ProcCache::reattach(Arc::clone(&pool), sc)?;
                Some(Mutex::new(c))
            }
            _ => None,
        };
        let mut db = ProcDatabase {
            pool,
            parent,
            children,
            caching: saved.caching,
            outside,
            inside_cached: Mutex::new(LruSet::default()),
            by_query: HashMap::new(),
            inside_counters: Mutex::new(CacheCounters::default()),
            parent_schema: saved.parent_schema.clone(),
            parent_count: saved.parent_count,
        };
        let rows = db.parents_in_range(0, u64::MAX)?;
        let mut by_query: HashMap<u64, (StoredQuery, Vec<u64>)> = HashMap::new();
        {
            let mut lru = db.inside_cached.lock();
            for row in &rows {
                by_query
                    .entry(row.members.hashkey())
                    .or_insert_with(|| (row.members.clone(), Vec::new()))
                    .1
                    .push(row.key);
                if row.cached.is_some() {
                    lru.touch(row.key);
                }
            }
        }
        db.by_query = by_query;
        Ok(db)
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// ParentRel cardinality.
    pub fn parent_count(&self) -> u64 {
        self.parent_count
    }

    /// The configured caching mode.
    pub fn caching(&self) -> ProcCaching {
        self.caching
    }

    /// Cache counters: the outside cache's, or the inside bookkeeping's.
    pub fn cache_counters(&self) -> CacheCounters {
        match &self.outside {
            Some(c) => c.lock().counters(),
            None => *self.inside_counters.lock(),
        }
    }

    /// Borrow the outside cache (panics if the mode has none — callers
    /// dispatch on [`Self::caching`]).
    pub(crate) fn outside_cache(&self) -> MutexGuard<'_, ProcCache> {
        self.outside
            .as_ref()
            .expect("outside cache configured")
            .lock()
    }

    /// The ChildRel B-tree for `rel`.
    pub fn child_tree(&self, rel: RelId) -> Result<&BTreeFile, CorError> {
        let idx = rel.checked_sub(CHILD_REL_BASE).map(usize::from);
        idx.and_then(|i| self.children.get(i))
            .ok_or(CorError::UnknownRelation(rel))
    }

    /// Scan the qualifying objects of `lo <= OID <= hi`.
    pub fn parents_in_range(&self, lo: u64, hi: u64) -> Result<Vec<ProcParentRow>, CorError> {
        let lo_k = Oid::new(PROC_PARENT_REL, lo).to_key_bytes();
        let hi_k = Oid::new(PROC_PARENT_REL, hi).to_key_bytes();
        let mut out = Vec::new();
        self.parent.visit_range(&lo_k, &hi_k, |_, rec| {
            let t = decode(&self.parent_schema, rec)?;
            let key = t.get(0).as_oid().expect("oid column").key;
            let text = t.get(5).as_str().expect("members column");
            // The text and the payload come off a page with no checksum:
            // bytes that do not decode are an error, not a panic.
            let members = StoredQuery::parse_quel(text).map_err(CorError::CorruptStoredQuery)?;
            let cached_bytes = t.get(6).as_bytes().expect("cached column");
            let cached = if cached_bytes.is_empty() {
                None
            } else {
                Some(decode_unit_value(cached_bytes).ok_or(CodecError::Truncated)?)
            };
            out.push(ProcParentRow {
                key,
                members,
                cached,
            });
            Ok::<(), CorError>(())
        })?;
        Ok(out)
    }

    /// Execute a stored query against the base relations, returning the
    /// qualifying `(oid, record)` pairs. Key ranges use the ChildRel
    /// B-tree; value ranges have no index and scan the relation — exactly
    /// the cost asymmetry that makes caching attractive for procedural
    /// representations.
    pub fn execute_stored(&self, q: &StoredQuery) -> Result<Vec<(Oid, Vec<u8>)>, CorError> {
        let tree = self.child_tree(q.relation())?;
        match q {
            StoredQuery::KeyRange { rel, lo, hi } => {
                let lo_k = Oid::new(*rel, *lo).to_key_bytes();
                let hi_k = Oid::new(*rel, *hi).to_key_bytes();
                let mut out = Vec::new();
                tree.visit_range(&lo_k, &hi_k, |k, rec| {
                    out.push((Oid::from_key_bytes(k).expect("oid key"), rec.to_vec()));
                    Ok::<(), CorError>(())
                })?;
                Ok(out)
            }
            StoredQuery::RetRange {
                ret_idx, lo, hi, ..
            } => {
                // Still the copy-out scan, which panics on a failed leaf
                // read: `scan_all` starts at the first leaf, and a
                // `visit_range` from the smallest key would add a root
                // descent and so move the pinned procedural I/O. It goes
                // with `BTreeRange`, once the benchmark's probes stop
                // timing the copy-out path.
                let mut out = Vec::new();
                for (k, rec) in tree.scan_all() {
                    let v = extract_ret(&rec, crate::query::RetAttr::ALL[*ret_idx])?;
                    if (*lo..=*hi).contains(&v) {
                        out.push((Oid::from_key_bytes(&k).expect("oid key"), rec));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Store an inside-cached result into parent `key`'s tuple (an I/O
    /// write against ParentRel), evicting the least recently used inside
    /// copy when the capacity bound is reached, and track it for
    /// invalidation.
    pub fn inside_store(&self, key: u64, records: &[Vec<u8>]) -> Result<(), CorError> {
        let ProcCaching::InsideValues(capacity) = self.caching else {
            return Ok(());
        };
        let _phase = cor_obs::PhaseGuard::enter(cor_obs::Phase::CacheMaintain);
        let payload = encode_unit_value(records);
        if payload.len() + 300 > cor_pagestore::MAX_RECORD {
            // Result too large to inline next to the tuple: skip caching.
            return Ok(());
        }
        while self.inside_cached.lock().len() >= capacity {
            let Some(victim) = self.inside_cached.lock().lru_victim() else {
                break;
            };
            self.inside_clear(victim)?;
            self.inside_cached.lock().remove(victim);
            self.inside_counters.lock().evictions += 1;
        }
        let pkey = Oid::new(PROC_PARENT_REL, key).to_key_bytes();
        let found = self.parent.update_with(&pkey, |rec| {
            let mut t = decode(&self.parent_schema, rec)?;
            t.set(6, Value::Bytes(payload));
            Ok::<_, CorError>(Some(encode(&self.parent_schema, &t)?))
        })?;
        if !found {
            return Err(CorError::DanglingOid(Oid::new(PROC_PARENT_REL, key)));
        }
        self.inside_cached.lock().touch(key);
        self.inside_counters.lock().insertions += 1;
        Ok(())
    }

    /// Record an inside-cache hit for LRU purposes (called by the executor
    /// when a scanned parent carried a cached copy).
    pub fn inside_touch(&self, key: u64) {
        let mut lru = self.inside_cached.lock();
        if lru.contains(key) {
            lru.touch(key);
            self.inside_counters.lock().hits += 1;
        }
    }

    fn inside_clear(&self, key: u64) -> Result<(), CorError> {
        let _phase = cor_obs::PhaseGuard::enter(cor_obs::Phase::CacheMaintain);
        let pkey = Oid::new(PROC_PARENT_REL, key).to_key_bytes();
        let found = self.parent.update_with(&pkey, |rec| {
            let mut t = decode(&self.parent_schema, rec)?;
            t.set(6, Value::Bytes(Vec::new()));
            Ok::<_, CorError>(Some(encode(&self.parent_schema, &t)?))
        })?;
        if found {
            self.inside_counters.lock().invalidations += 1;
        }
        Ok(())
    }

    /// Update one `ret` attribute of a subobject in place, then invalidate
    /// whatever the caching mode requires. Returns whether the subobject
    /// exists.
    pub fn update_child_ret(&self, oid: Oid, attr: RetAttr, v: i64) -> Result<bool, CorError> {
        let mut old_rets = [0; 3];
        let found = self
            .child_tree(oid.rel)?
            .update_with(&oid.to_key_bytes(), |rec| {
                for (old, a) in old_rets.iter_mut().zip(RetAttr::ALL) {
                    *old = extract_ret(rec, a)?;
                }
                set_ret(rec, attr, v)?;
                Ok::<_, CorError>(None)
            })?;
        if !found {
            return Ok(false);
        }
        let mut new_rets = old_rets;
        new_rets[attr.column() - 1] = v;

        match self.caching {
            ProcCaching::None => {}
            ProcCaching::OutsideValues(_) | ProcCaching::OutsideOids(_) => {
                self.outside_cache()
                    .invalidate_for_update(oid, &old_rets, &new_rets)?;
            }
            ProcCaching::InsideValues(_) => {
                // Fan out to every parent whose stored query is affected
                // and currently holds a cached copy: one ParentRel write
                // each — the cost that sinks inside caching under sharing.
                let mut victims = Vec::new();
                for (query, parent_keys) in self.by_query.values() {
                    if query.matches(oid, &old_rets) || query.matches(oid, &new_rets) {
                        for &pk in parent_keys {
                            if self.inside_cached.lock().contains(pk) {
                                victims.push(pk);
                            }
                        }
                    }
                }
                for pk in victims {
                    self.inside_clear(pk)?;
                    self.inside_cached.lock().remove(pk);
                }
            }
        }
        Ok(true)
    }
}

/// A four-object, twelve-subobject fixture shared by this module's tests
/// and the exec tests.
#[cfg(test)]
pub(crate) fn tiny_spec() -> ProcDatabaseSpec {
    tests::tiny_spec_impl()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    pub(crate) fn tiny_spec() -> ProcDatabaseSpec {
        tiny_spec_impl()
    }

    pub(crate) fn tiny_spec_impl() -> ProcDatabaseSpec {
        // 12 subobjects with ret1 = 10*key; four parents:
        //   p0, p1 share "keys 0..3"; p2: "keys 4..7"; p3: "ret1 >= 80".
        let child = |k: u64| SubobjectSpec {
            oid: Oid::new(CHILD_REL_BASE, k),
            rets: [10 * k as i64, k as i64, 0],
            dummy: "c".repeat(10),
        };
        let keyq = |lo, hi| StoredQuery::KeyRange {
            rel: CHILD_REL_BASE,
            lo,
            hi,
        };
        let retq = |lo, hi| StoredQuery::RetRange {
            rel: CHILD_REL_BASE,
            ret_idx: 0,
            lo,
            hi,
        };
        ProcDatabaseSpec {
            parents: vec![
                ProcObjectSpec {
                    key: 0,
                    rets: [0; 3],
                    dummy: "p".into(),
                    members: keyq(0, 3),
                },
                ProcObjectSpec {
                    key: 1,
                    rets: [0; 3],
                    dummy: "p".into(),
                    members: keyq(0, 3),
                },
                ProcObjectSpec {
                    key: 2,
                    rets: [0; 3],
                    dummy: "p".into(),
                    members: keyq(4, 7),
                },
                ProcObjectSpec {
                    key: 3,
                    rets: [0; 3],
                    dummy: "p".into(),
                    members: retq(80, 200),
                },
            ],
            child_rels: vec![(0..12).map(child).collect()],
        }
    }

    #[test]
    fn build_and_scan_parents() {
        let db = ProcDatabase::build(pool(32), &tiny_spec(), ProcCaching::None).unwrap();
        assert_eq!(db.parent_count(), 4);
        let rows = db.parents_in_range(0, 3).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0].members, rows[1].members,
            "p0 and p1 share the stored query"
        );
        assert!(rows.iter().all(|r| r.cached.is_none()));
    }

    #[test]
    fn execute_key_range_uses_index() {
        let p = pool(32);
        let db = ProcDatabase::build(Arc::clone(&p), &tiny_spec(), ProcCaching::None).unwrap();
        let q = StoredQuery::KeyRange {
            rel: CHILD_REL_BASE,
            lo: 4,
            hi: 7,
        };
        let result = db.execute_stored(&q).unwrap();
        let keys: Vec<u64> = result.iter().map(|(o, _)| o.key).collect();
        assert_eq!(keys, vec![4, 5, 6, 7]);
    }

    #[test]
    fn execute_ret_range_scans_and_filters() {
        let db = ProcDatabase::build(pool(32), &tiny_spec(), ProcCaching::None).unwrap();
        let q = StoredQuery::RetRange {
            rel: CHILD_REL_BASE,
            ret_idx: 0,
            lo: 80,
            hi: 200,
        };
        let result = db.execute_stored(&q).unwrap();
        let keys: Vec<u64> = result.iter().map(|(o, _)| o.key).collect();
        assert_eq!(keys, vec![8, 9, 10, 11]);
    }

    #[test]
    fn inside_store_and_rescan() {
        let db =
            ProcDatabase::build(pool(32), &tiny_spec(), ProcCaching::InsideValues(64)).unwrap();
        let records = vec![b"r0".to_vec(), b"r1".to_vec()];
        db.inside_store(2, &records).unwrap();
        let rows = db.parents_in_range(2, 2).unwrap();
        assert_eq!(rows[0].cached.as_ref().unwrap(), &records);
        // Other parents untouched.
        assert!(db
            .parents_in_range(0, 1)
            .unwrap()
            .iter()
            .all(|r| r.cached.is_none()));
    }

    #[test]
    fn inside_invalidation_fans_out_to_sharing_parents() {
        let db =
            ProcDatabase::build(pool(32), &tiny_spec(), ProcCaching::InsideValues(64)).unwrap();
        db.inside_store(0, &[b"x".to_vec()]).unwrap();
        db.inside_store(1, &[b"x".to_vec()]).unwrap();
        db.inside_store(2, &[b"y".to_vec()]).unwrap();
        // Update subobject 1 (in p0/p1's key range 0..3 only).
        assert!(db
            .update_child_ret(Oid::new(CHILD_REL_BASE, 1), RetAttr::Ret1, 999)
            .unwrap());
        let rows = db.parents_in_range(0, 3).unwrap();
        assert!(rows[0].cached.is_none(), "p0's inside copy must be cleared");
        assert!(rows[1].cached.is_none(), "p1's inside copy must be cleared");
        assert!(rows[2].cached.is_some(), "p2 unaffected");
        assert_eq!(db.cache_counters().invalidations, 2);
    }

    #[test]
    fn ret_range_membership_changes_invalidate_inside_copies() {
        let db =
            ProcDatabase::build(pool(32), &tiny_spec(), ProcCaching::InsideValues(64)).unwrap();
        db.inside_store(3, &[b"elders".to_vec()]).unwrap();
        // Subobject 0 has ret1 = 0; raising it to 100 moves it INTO
        // p3's ret-range query -> invalidate.
        db.update_child_ret(Oid::new(CHILD_REL_BASE, 0), RetAttr::Ret1, 100)
            .unwrap();
        assert!(db.parents_in_range(3, 3).unwrap()[0].cached.is_none());
    }

    #[test]
    fn update_missing_subobject_returns_false() {
        let db = ProcDatabase::build(pool(32), &tiny_spec(), ProcCaching::None).unwrap();
        assert!(!db
            .update_child_ret(Oid::new(CHILD_REL_BASE, 999), RetAttr::Ret1, 1)
            .unwrap());
    }
}
