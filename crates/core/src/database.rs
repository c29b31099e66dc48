//! The experiment database (paper Sec. 4).
//!
//! ```text
//! ParentRel  (OID, ret1, ret2, ret3, dummy, children)   -- B-tree on OID
//! ChildRel   (OID, ret1, ret2, ret3, dummy)             -- B-tree on OID
//! ClusterRel (cluster#, OID, ret1..3, dummy, children)  -- B-tree on cluster#
//!                                                       -- + static ISAM index on OID
//! Cache      (hashkey, value)                           -- hash relation
//! ```
//!
//! A database is built either in the **standard** OID representation
//! (ParentRel + one or more ChildRels) or in the **clustered**
//! representation, where "all objects and their subobjects [are stored] in
//! one relation called cluster"; an object and the subobjects clustered
//! with it share a `cluster#` and are therefore physically co-located.

use crate::cache::{
    decode_unit_value, encode_unit_value, CacheCounters, EvictionPolicy, LruSet, UnitCache,
};
use crate::cluster::ClusterAssignment;
use crate::matrix::CachePlacement;
use crate::query::parent_children;
use crate::CorError;
use cor_access::{decode, encode, AccessError, BTreeFile, IsamIndex, DEFAULT_FILL};
use cor_pagestore::BufferPool;
use cor_relational::{Oid, RelId, Schema, Tuple, Value, ValueType};
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Encoded `(key, record)` pairs ready for a bulk load.
type LoadEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Relation id of ParentRel.
pub const PARENT_REL: RelId = 1;
/// Relation id of the first ChildRel; relation `i` is `CHILD_REL_BASE + i`.
pub const CHILD_REL_BASE: RelId = 10;

/// Schema of ParentRel (paper Sec. 4).
pub fn parent_schema() -> Schema {
    Schema::new(&[
        ("oid", ValueType::Oid),
        ("ret1", ValueType::Int),
        ("ret2", ValueType::Int),
        ("ret3", ValueType::Int),
        ("dummy", ValueType::Str),
        ("children", ValueType::OidList),
        // Inside caching (Sec. 2.3): cached subobject values stored "with
        // the referencing object". Empty unless inside placement is on.
        ("cached", ValueType::Bytes),
    ])
}

/// Schema of each ChildRel (paper Sec. 4).
pub fn child_schema() -> Schema {
    Schema::new(&[
        ("oid", ValueType::Oid),
        ("ret1", ValueType::Int),
        ("ret2", ValueType::Int),
        ("ret3", ValueType::Int),
        ("dummy", ValueType::Str),
    ])
}

/// Logical contents of one complex object (a ParentRel tuple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSpec {
    /// Primary key; the object's OID is `(PARENT_REL, key)`.
    pub key: u64,
    /// The three retrievable integer attributes.
    pub rets: [i64; 3],
    /// Pad field sizing the tuple (~200 bytes in the paper).
    pub dummy: String,
    /// OIDs of the object's subobjects (its unit).
    pub children: Vec<Oid>,
}

/// Logical contents of one subobject (a ChildRel tuple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubobjectSpec {
    /// The subobject's OID (identifies its ChildRel too).
    pub oid: Oid,
    /// The three retrievable integer attributes.
    pub rets: [i64; 3],
    /// Pad field sizing the tuple (~100 bytes in the paper).
    pub dummy: String,
}

/// Logical database contents, independent of representation.
#[derive(Debug, Clone, Default)]
pub struct DatabaseSpec {
    /// Objects, sorted ascending by `key`.
    pub parents: Vec<ObjectSpec>,
    /// One vector per ChildRel, each sorted ascending by OID.
    pub child_rels: Vec<Vec<SubobjectSpec>>,
}

impl DatabaseSpec {
    /// A tiny hand-built example database — 4 objects over one ChildRel
    /// of 6 subobjects, objects 0 and 1 sharing a unit — for doc examples
    /// and smoke tests. Real experiments generate specs from
    /// `cor-workload`'s parameterized generator.
    pub fn tiny() -> DatabaseSpec {
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        let child = |k: u64| SubobjectSpec {
            oid: c(k),
            rets: [k as i64 * 10, k as i64 * 100, k as i64 * 1000],
            dummy: "x".repeat(20),
        };
        DatabaseSpec {
            parents: (0..4u64)
                .map(|key| ObjectSpec {
                    key,
                    rets: [key as i64; 3],
                    dummy: "p".repeat(30),
                    children: match key {
                        0 | 1 => vec![c(0), c(1)],
                        2 => vec![c(2), c(3)],
                        _ => vec![c(4), c(5)],
                    },
                })
                .collect(),
            child_rels: vec![(0..6).map(child).collect()],
        }
    }

    fn parent_tuple(&self, o: &ObjectSpec) -> Tuple {
        Tuple::new(vec![
            Value::Oid(Oid::new(PARENT_REL, o.key)),
            Value::Int(o.rets[0]),
            Value::Int(o.rets[1]),
            Value::Int(o.rets[2]),
            Value::Str(o.dummy.clone()),
            Value::OidList(o.children.clone()),
            Value::Bytes(Vec::new()),
        ])
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
}

/// How the logical database is physically represented.
pub enum Storage {
    /// ParentRel + ChildRel\[s\], each a B-tree on OID.
    Standard {
        /// ParentRel.
        parent: BTreeFile,
        /// ChildRel\[i\] holds relation `CHILD_REL_BASE + i`.
        children: Vec<BTreeFile>,
    },
    /// One ClusterRel B-tree on `(cluster#, kind, OID)` plus a static ISAM
    /// index on OID for random access.
    Clustered {
        /// The combined relation.
        cluster: BTreeFile,
        /// OID → cluster key, "maintained as an isam structure".
        oid_index: IsamIndex,
    },
}

/// Byte length of a ClusterRel key: cluster# (8) + kind (1) + OID (10).
pub const CLUSTER_KEY_LEN: usize = 19;

/// Entry kind within a cluster: the object itself sorts first.
const KIND_PARENT: u8 = 0;
/// Entry kind for a clustered subobject.
const KIND_CHILD: u8 = 1;

/// Encode a ClusterRel key.
pub fn cluster_key(cluster_no: u64, is_child: bool, oid: Oid) -> [u8; CLUSTER_KEY_LEN] {
    let mut out = [0u8; CLUSTER_KEY_LEN];
    out[..8].copy_from_slice(&cluster_no.to_be_bytes());
    out[8] = if is_child { KIND_CHILD } else { KIND_PARENT };
    out[9..].copy_from_slice(&oid.to_key_bytes());
    out
}

/// An OID-index payload, copied off the index page: the subobject's
/// cluster key and the ClusterRel leaf page holding it.
type Tid = ([u8; CLUSTER_KEY_LEN], cor_pagestore::PageId);

/// Split an OID-index payload into `(cluster key, leaf page hint)`.
fn split_tid(tid: &[u8]) -> Tid {
    let (ckey, page) = tid.split_at(CLUSTER_KEY_LEN);
    let leaf = cor_pagestore::PageId::from_le_bytes([page[0], page[1], page[2], page[3]]);
    (ckey.try_into().expect("CLUSTER_KEY_LEN-long half"), leaf)
}

/// Decode a ClusterRel key into `(cluster#, is_child, oid)`.
pub fn decode_cluster_key(key: &[u8]) -> Option<(u64, bool, Oid)> {
    if key.len() != CLUSTER_KEY_LEN {
        return None;
    }
    let mut c = [0u8; 8];
    c.copy_from_slice(&key[..8]);
    let oid = Oid::from_key_bytes(&key[9..])?;
    Some((u64::from_be_bytes(c), key[8] == KIND_CHILD, oid))
}

/// [`decode_cluster_key`] for keys read off a ClusterRel page, where a
/// malformed key is a storage error rather than an absent value.
pub(crate) fn parse_cluster_key(key: &[u8]) -> Result<(u64, bool, Oid), CorError> {
    decode_cluster_key(key).ok_or(CorError::Access(AccessError::BadKeyLen(key.len())))
}

/// Cache configuration for databases supporting DFSCACHE/SMART.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum cached units (the paper's `SizeCache`).
    pub capacity: usize,
    /// Replacement policy (paper-unspecified; LRU by default).
    pub policy: EvictionPolicy,
    /// Where cached values live (Sec. 2.3). The paper "restrict[s its]
    /// attention to outside caching"; inside placement exists here to
    /// check that choice experimentally (see the `insideout` bench).
    pub placement: CachePlacement,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: crate::cache::DEFAULT_SIZE_CACHE,
            policy: EvictionPolicy::Lru,
            placement: CachePlacement::Outside,
        }
    }
}

/// One scanned object with its inside-cached records, if any:
/// `(key, children, cached unit records)`.
pub type CachedParentRow = (u64, Vec<Oid>, Option<Vec<Vec<u8>>>);

/// Inside-caching bookkeeping: which parents hold a copy (the copies live
/// in the parent tuples' `cached` column) and which parents reference each
/// subobject (invalidation fan-out).
struct InsideOidCache {
    capacity: usize,
    holders: LruSet,
    registry: std::collections::HashMap<Oid, Vec<u64>>,
    counters: CacheCounters,
}

/// A loaded experiment database.
pub struct CorDatabase {
    pool: Arc<BufferPool>,
    storage: Storage,
    cache: Option<Mutex<UnitCache>>,
    inside: Option<Mutex<InsideOidCache>>,
    parent_schema: Schema,
    child_schema: Schema,
    parent_count: u64,
    child_counts: Vec<u64>,
}

impl CorDatabase {
    /// Build the standard (non-clustered) representation from `spec`,
    /// optionally with a unit-value cache attached.
    pub fn build_standard(
        pool: Arc<BufferPool>,
        spec: &DatabaseSpec,
        cache: Option<CacheConfig>,
    ) -> Result<Self, CorError> {
        let pschema = parent_schema();
        let cschema = child_schema();

        let parent_entries: Result<LoadEntries, CorError> = spec
            .parents
            .iter()
            .map(|o| {
                let key = Oid::new(PARENT_REL, o.key).to_key_bytes().to_vec();
                let rec = encode(&pschema, &spec.parent_tuple(o))?;
                Ok((key, rec))
            })
            .collect();
        let parent = BTreeFile::bulk_load(Arc::clone(&pool), 10, parent_entries?, DEFAULT_FILL)?;

        let mut children = Vec::with_capacity(spec.child_rels.len());
        let mut child_counts = Vec::with_capacity(spec.child_rels.len());
        for rel in &spec.child_rels {
            let entries: Result<LoadEntries, CorError> = rel
                .iter()
                .map(|s| {
                    let key = s.oid.to_key_bytes().to_vec();
                    let rec = encode(&cschema, &DatabaseSpec::child_tuple(s))?;
                    Ok((key, rec))
                })
                .collect();
            let tree = BTreeFile::bulk_load(Arc::clone(&pool), 10, entries?, DEFAULT_FILL)?;
            child_counts.push(tree.len());
            children.push(tree);
        }

        let mut outside = None;
        let mut inside = None;
        match cache {
            Some(cfg) if cfg.placement == CachePlacement::Outside => {
                outside = Some(Mutex::new(UnitCache::with_policy(
                    Arc::clone(&pool),
                    cfg.capacity,
                    cfg.policy,
                )?));
            }
            Some(cfg) => {
                let mut registry: std::collections::HashMap<Oid, Vec<u64>> =
                    std::collections::HashMap::new();
                for o in &spec.parents {
                    for &c in &o.children {
                        registry.entry(c).or_default().push(o.key);
                    }
                }
                inside = Some(Mutex::new(InsideOidCache {
                    capacity: cfg.capacity,
                    holders: LruSet::default(),
                    registry,
                    counters: CacheCounters::default(),
                }));
            }
            None => {}
        }

        Ok(CorDatabase {
            pool,
            storage: Storage::Standard { parent, children },
            cache: outside,
            inside,
            parent_schema: pschema,
            child_schema: cschema,
            parent_count: spec.parents.len() as u64,
            child_counts,
        })
    }

    /// Build the clustered representation: ParentRel and ChildRel are
    /// omitted; objects and subobjects live in ClusterRel, subobjects
    /// physically clustered with the parent `assignment` chose for them.
    pub fn build_clustered(
        pool: Arc<BufferPool>,
        spec: &DatabaseSpec,
        assignment: &ClusterAssignment,
    ) -> Result<Self, CorError> {
        let pschema = parent_schema();
        let cschema = child_schema();

        // Group subobjects by assigned parent key; each parent's cluster#
        // is its own primary key, so ClusterRel interleaves objects with
        // their clustered subobjects in key order. A subobject referenced
        // by no object has no parent to cluster with; it is stored in the
        // unclustered tail area (`cluster# = u64::MAX`), reachable only
        // through the OID index — exactly like any other heap resident.
        let mut by_parent: BTreeMap<u64, Vec<&SubobjectSpec>> = BTreeMap::new();
        let mut unclustered: Vec<&SubobjectSpec> = Vec::new();
        for rel in &spec.child_rels {
            for s in rel {
                match assignment.parent_of(s.oid) {
                    Some(pk) => by_parent.entry(pk).or_default().push(s),
                    None => unclustered.push(s),
                }
            }
        }

        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut oid_index_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for o in &spec.parents {
            let pkey = cluster_key(o.key, false, Oid::new(PARENT_REL, o.key));
            entries.push((pkey.to_vec(), encode(&pschema, &spec.parent_tuple(o))?));
            if let Some(subs) = by_parent.get(&o.key) {
                let mut subs: Vec<&&SubobjectSpec> = subs.iter().collect();
                subs.sort_by_key(|s| s.oid);
                for s in subs {
                    let ckey = cluster_key(o.key, true, s.oid);
                    entries.push((
                        ckey.to_vec(),
                        encode(&cschema, &DatabaseSpec::child_tuple(s))?,
                    ));
                    oid_index_entries.push((s.oid.to_key_bytes().to_vec(), ckey.to_vec()));
                }
            }
        }
        unclustered.sort_by_key(|s| s.oid);
        for s in unclustered {
            let ckey = cluster_key(u64::MAX, true, s.oid);
            entries.push((
                ckey.to_vec(),
                encode(&cschema, &DatabaseSpec::child_tuple(s))?,
            ));
            oid_index_entries.push((s.oid.to_key_bytes().to_vec(), ckey.to_vec()));
        }
        let cluster =
            BTreeFile::bulk_load(Arc::clone(&pool), CLUSTER_KEY_LEN, entries, DEFAULT_FILL)?;
        // The OID index stores a TID-style pointer — the cluster key plus
        // the leaf page holding the record — so a random access through
        // the index costs one direct page read, as an INGRES secondary
        // index probe would. ClusterRel is static after the build (updates
        // are in place), so the page hints never go stale.
        let mut oid_index_entries: Vec<(Vec<u8>, Vec<u8>)> = oid_index_entries
            .into_iter()
            .map(|(oid_bytes, ckey)| {
                let leaf = cluster.leaf_page_of(&ckey)?;
                let mut payload = ckey;
                payload.extend_from_slice(&leaf.to_le_bytes());
                Ok((oid_bytes, payload))
            })
            .collect::<Result<_, CorError>>()?;
        oid_index_entries.sort();
        let oid_index = IsamIndex::build(Arc::clone(&pool), 10, oid_index_entries)?;

        let child_counts = spec.child_rels.iter().map(|r| r.len() as u64).collect();
        Ok(CorDatabase {
            pool,
            storage: Storage::Clustered { cluster, oid_index },
            cache: None,
            inside: None,
            parent_schema: pschema,
            child_schema: cschema,
            parent_count: spec.parents.len() as u64,
            child_counts,
        })
    }

    /// Snapshot this database for the engine catalog: file metadata,
    /// schemas, cardinality counters, and the cache directory.
    pub fn save_state(&self) -> crate::persist::SavedOidDb {
        use crate::persist::{SavedCacheState, SavedOidDb, SavedStorage};
        let storage = match &self.storage {
            Storage::Standard { parent, children } => SavedStorage::Standard {
                parent: parent.metadata(),
                children: children.iter().map(|c| c.metadata()).collect(),
            },
            Storage::Clustered { cluster, oid_index } => SavedStorage::Clustered {
                cluster: cluster.metadata(),
                oid_index: oid_index.metadata(),
            },
        };
        let cache = if let Some(c) = &self.cache {
            Some(SavedCacheState::Outside(c.lock().save_state()))
        } else {
            self.inside.as_ref().map(|i| SavedCacheState::Inside {
                capacity: i.lock().capacity,
            })
        };
        SavedOidDb {
            storage,
            parent_schema: self.parent_schema.clone(),
            child_schema: self.child_schema.clone(),
            parent_count: self.parent_count,
            child_counts: self.child_counts.clone(),
            cache,
        }
    }

    /// Reconstruct a database from a catalog snapshot over an
    /// already-recovered pool. Files are reattached from their metadata;
    /// an outside cache is reconciled against its recovered hash relation
    /// (stale directory entries dropped); inside-caching bookkeeping —
    /// the holder set and the invalidation registry — is rebuilt by
    /// scanning ParentRel, whose tuples are the durable truth. The
    /// rebuilt holder set is LRU-ordered by key, not by historical
    /// recency, which only biases future evictions, never answers.
    pub fn open_state(
        pool: Arc<BufferPool>,
        saved: &crate::persist::SavedOidDb,
    ) -> Result<Self, CorError> {
        use crate::persist::{SavedCacheState, SavedStorage};
        let storage = match &saved.storage {
            SavedStorage::Standard { parent, children } => Storage::Standard {
                parent: BTreeFile::from_metadata(Arc::clone(&pool), *parent)?,
                children: children
                    .iter()
                    .map(|m| BTreeFile::from_metadata(Arc::clone(&pool), *m))
                    .collect::<Result<_, _>>()?,
            },
            SavedStorage::Clustered { cluster, oid_index } => Storage::Clustered {
                cluster: BTreeFile::from_metadata(Arc::clone(&pool), *cluster)?,
                oid_index: IsamIndex::from_metadata(Arc::clone(&pool), *oid_index)?,
            },
        };
        let mut outside = None;
        let mut inside_capacity = None;
        match &saved.cache {
            Some(SavedCacheState::Outside(sc)) => {
                let (c, _dropped) = UnitCache::reattach(Arc::clone(&pool), sc)?;
                outside = Some(Mutex::new(c));
            }
            Some(SavedCacheState::Inside { capacity }) => inside_capacity = Some(*capacity),
            None => {}
        }
        let mut db = CorDatabase {
            pool,
            storage,
            cache: outside,
            inside: None,
            parent_schema: saved.parent_schema.clone(),
            child_schema: saved.child_schema.clone(),
            parent_count: saved.parent_count,
            child_counts: saved.child_counts.clone(),
        };
        if let Some(capacity) = inside_capacity {
            let mut registry: std::collections::HashMap<Oid, Vec<u64>> =
                std::collections::HashMap::new();
            let mut holders = LruSet::default();
            for (key, children, cached) in db.parents_in_range_cached(0, u64::MAX)? {
                for c in &children {
                    registry.entry(*c).or_default().push(key);
                }
                if cached.is_some() {
                    holders.touch(key);
                }
            }
            db.inside = Some(Mutex::new(InsideOidCache {
                capacity,
                holders,
                registry,
                counters: CacheCounters::default(),
            }));
        }
        Ok(db)
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Physical representation.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// ParentRel cardinality.
    pub fn parent_count(&self) -> u64 {
        self.parent_count
    }

    /// Number of ChildRel relations (the paper's `NumChildRel`).
    pub fn num_child_rels(&self) -> usize {
        self.child_counts.len()
    }

    /// Cardinality of ChildRel `i`.
    pub fn child_count(&self, i: usize) -> u64 {
        self.child_counts[i]
    }

    /// ParentRel schema.
    pub fn parent_schema(&self) -> &Schema {
        &self.parent_schema
    }

    /// ChildRel schema.
    pub fn child_schema(&self) -> &Schema {
        &self.child_schema
    }

    /// Is a unit-value cache (either placement) attached?
    pub fn has_cache(&self) -> bool {
        self.cache.is_some() || self.inside.is_some()
    }

    /// Is the attached cache inside-placed?
    pub fn has_inside_cache(&self) -> bool {
        self.inside.is_some()
    }

    /// Borrow the outside cache mutably. Errors when the database has no
    /// cache or an inside-placed one (SMART and the outside strategies
    /// need this placement).
    pub fn cache_mut(&self) -> Result<MutexGuard<'_, UnitCache>, CorError> {
        self.cache
            .as_ref()
            .map(|c| c.lock())
            .ok_or(CorError::NoCache)
    }

    /// Hit/miss/maintenance counters of whichever cache is attached.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        if let Some(c) = &self.cache {
            return Some(c.lock().counters());
        }
        self.inside.as_ref().map(|c| c.lock().counters)
    }

    /// Invalidate whatever cached state an update of `oid` poisons —
    /// outside: I-locked units; inside: every referencing parent's copy.
    pub fn invalidate_subobject(&self, oid: Oid) -> Result<usize, CorError> {
        if let Some(c) = &self.cache {
            return Ok(c.lock().invalidate_subobject(oid)?);
        }
        let Some(state) = &self.inside else {
            return Ok(0);
        };
        let victims: Vec<u64> = {
            let st = state.lock();
            st.registry
                .get(&oid)
                .map(|parents| {
                    parents
                        .iter()
                        .copied()
                        .filter(|pk| st.holders.contains(*pk))
                        .collect()
                })
                .unwrap_or_default()
        };
        for pk in &victims {
            self.inside_clear(*pk)?;
            let mut st = state.lock();
            st.holders.remove(*pk);
            st.counters.invalidations += 1;
        }
        Ok(victims.len())
    }

    /// Scan qualifying objects with their inside-cached values (standard
    /// storage; used by the inside-placement DFSCACHE path).
    pub fn parents_in_range_cached(
        &self,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<CachedParentRow>, CorError> {
        let Storage::Standard { parent, .. } = &self.storage else {
            return Err(CorError::WrongRepresentation("standard"));
        };
        let lo_k = Oid::new(PARENT_REL, lo).to_key_bytes();
        let hi_k = Oid::new(PARENT_REL, hi).to_key_bytes();
        let mut out = Vec::new();
        parent.visit_range(&lo_k, &hi_k, |_, rec| {
            let t = decode(&self.parent_schema, rec)?;
            let key = t.get(0).as_oid().expect("parent oid column").key;
            let children = t.get(5).as_oid_list().expect("children column").to_vec();
            let cached_bytes = t.get(6).as_bytes().expect("cached column");
            let cached = if cached_bytes.is_empty() {
                None
            } else {
                Some(decode_unit_value(cached_bytes).expect("inside-cached payload decodes"))
            };
            out.push((key, children, cached));
            Ok::<(), CorError>(())
        })?;
        Ok(out)
    }

    /// Record an inside-cache hit (LRU touch + counter).
    pub fn inside_touch(&self, key: u64) {
        if let Some(state) = &self.inside {
            let mut st = state.lock();
            if st.holders.contains(key) {
                st.holders.touch(key);
                st.counters.hits += 1;
            }
        }
    }

    /// Record an inside-cache miss.
    pub fn inside_miss(&self) {
        if let Some(state) = &self.inside {
            state.lock().counters.misses += 1;
        }
    }

    /// Store an inside-cached copy in parent `key`'s tuple (a ParentRel
    /// write), evicting the LRU holder at capacity.
    pub fn inside_store(&self, key: u64, records: &[Vec<u8>]) -> Result<(), CorError> {
        let Some(state) = &self.inside else {
            return Ok(());
        };
        let payload = encode_unit_value(records);
        if payload.len() + 300 > cor_pagestore::MAX_RECORD {
            return Ok(()); // too large to inline: skip caching
        }
        loop {
            let victim = {
                let st = state.lock();
                (st.holders.len() >= st.capacity)
                    .then(|| st.holders.lru_victim())
                    .flatten()
            };
            let Some(victim) = victim else { break };
            self.inside_clear(victim)?;
            let mut st = state.lock();
            st.holders.remove(victim);
            st.counters.evictions += 1;
        }
        self.inside_write(key, Some(&payload))?;
        let mut st = state.lock();
        st.holders.touch(key);
        st.counters.insertions += 1;
        Ok(())
    }

    fn inside_clear(&self, key: u64) -> Result<(), CorError> {
        self.inside_write(key, None)
    }

    /// Rewrite parent `key`'s cached column (None clears it).
    fn inside_write(&self, key: u64, payload: Option<&[u8]>) -> Result<(), CorError> {
        let _phase = cor_obs::PhaseGuard::enter(cor_obs::Phase::CacheMaintain);
        let Storage::Standard { parent, .. } = &self.storage else {
            return Err(CorError::WrongRepresentation("standard"));
        };
        let pkey = Oid::new(PARENT_REL, key).to_key_bytes();
        let Some(rec) = parent.get(&pkey)? else {
            return Err(CorError::DanglingOid(Oid::new(PARENT_REL, key)));
        };
        let mut t = decode(&self.parent_schema, &rec)?;
        t.set(
            6,
            Value::Bytes(payload.map(|p| p.to_vec()).unwrap_or_default()),
        );
        parent.update(&pkey, &encode(&self.parent_schema, &t)?)?;
        Ok(())
    }

    /// The ChildRel B-tree holding relation `rel` (standard storage only).
    pub fn child_tree(&self, rel: RelId) -> Result<&BTreeFile, CorError> {
        match &self.storage {
            Storage::Standard { children, .. } => {
                let idx = rel.checked_sub(CHILD_REL_BASE).map(usize::from);
                idx.and_then(|i| children.get(i))
                    .ok_or(CorError::UnknownRelation(rel))
            }
            Storage::Clustered { .. } => Err(CorError::WrongRepresentation("standard")),
        }
    }

    /// ParentRel B-tree (standard storage only).
    pub fn parent_tree(&self) -> Result<&BTreeFile, CorError> {
        match &self.storage {
            Storage::Standard { parent, .. } => Ok(parent),
            Storage::Clustered { .. } => Err(CorError::WrongRepresentation("standard")),
        }
    }

    /// ClusterRel B-tree and OID index (clustered storage only).
    pub fn cluster(&self) -> Result<(&BTreeFile, &IsamIndex), CorError> {
        match &self.storage {
            Storage::Clustered { cluster, oid_index } => Ok((cluster, oid_index)),
            Storage::Standard { .. } => Err(CorError::WrongRepresentation("clustered")),
        }
    }

    /// Scan the qualifying objects of a retrieve query — ParentRel tuples
    /// with `lo <= OID.key <= hi` — returning `(key, children)` pairs.
    /// Works on both representations (the clustered scan reads the object
    /// entries of ClusterRel, skipping interleaved subobjects). Records are
    /// read under each leaf's page pin: the key comes from the B-tree key
    /// and the child list from [`parent_children`], so no record is copied
    /// out or fully decoded.
    pub fn parents_in_range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<Oid>)>, CorError> {
        let mut out = Vec::new();
        let mut push = |key: u64, rec: &[u8]| -> Result<(), CorError> {
            let children = parent_children(rec)?;
            out.push((key, children));
            Ok(())
        };
        match &self.storage {
            Storage::Standard { parent, .. } => {
                let lo_k = Oid::new(PARENT_REL, lo).to_key_bytes();
                let hi_k = Oid::new(PARENT_REL, hi).to_key_bytes();
                parent.visit_range(&lo_k, &hi_k, |k, rec| {
                    let oid = Oid::from_key_bytes(k).ok_or(AccessError::BadKeyLen(k.len()))?;
                    push(oid.key, rec)
                })?;
            }
            Storage::Clustered { cluster, .. } => {
                let lo_k = cluster_key(lo, false, Oid::new(0, 0));
                let hi_k = cluster_key(hi, true, Oid::new(u16::MAX, u64::MAX));
                cluster.visit_range(&lo_k, &hi_k, |k, rec| match parse_cluster_key(k)? {
                    (_, true, _) => Ok(()),
                    (_, false, oid) => push(oid.key, rec),
                })?;
            }
        }
        Ok(out)
    }

    /// The OID index's entry for `oid` (clustered storage), copied off the
    /// index page so the page is unpinned before ClusterRel is touched.
    fn tid_of(oid_index: &IsamIndex, oid: Oid) -> Result<Option<Tid>, CorError> {
        oid_index.lookup_with(&oid.to_key_bytes(), |tid| Ok(split_tid(tid)))
    }

    /// Run `f` over a subobject's record **in place**, under the page pin
    /// of the leaf holding it; `Ok(None)` if the subobject does not exist.
    /// On the standard representation this is a ChildRel B-tree probe; on
    /// the clustered one it is the ISAM probe followed by a ClusterRel
    /// access — the "random access" the paper charges non-clustered
    /// subobject fetches with.
    pub fn with_child_record<R>(
        &self,
        oid: Oid,
        f: impl FnMut(&[u8]) -> Result<R, CorError>,
    ) -> Result<Option<R>, CorError> {
        match &self.storage {
            Storage::Standard { .. } => self.child_tree(oid.rel)?.get_with(&oid.to_key_bytes(), f),
            Storage::Clustered { cluster, oid_index } => {
                let Some((ckey, leaf)) = Self::tid_of(oid_index, oid)? else {
                    return Ok(None);
                };
                cluster.get_with_hint(leaf, &ckey, f)
            }
        }
    }

    /// Fetch a copy of a subobject record by OID (see
    /// [`Self::with_child_record`] for the in-place form).
    pub fn fetch_child_record(&self, oid: Oid) -> Result<Option<Vec<u8>>, CorError> {
        self.with_child_record(oid, |rec| Ok(rec.to_vec()))
    }

    /// Visit a subobject **and every child record co-located on its page**
    /// (clustered storage only; nothing is visited for an OID the index
    /// does not know). One ISAM probe plus one direct page read reaches
    /// the whole physically clustered unit — the paper's "their subobjects
    /// are still physically clustered, albeit elsewhere, and can be fetched
    /// in one random access" (Sec. 3.3 case \[2\]).
    pub fn visit_child_page(
        &self,
        oid: Oid,
        mut f: impl FnMut(Oid, &[u8]) -> Result<(), CorError>,
    ) -> Result<(), CorError> {
        let (cluster, oid_index) = self.cluster()?;
        let Some((_, leaf)) = Self::tid_of(oid_index, oid)? else {
            return Ok(());
        };
        cluster.visit_leaf(leaf, |k, rec| match parse_cluster_key(k)? {
            (_, true, child) => f(child, rec),
            (_, false, _) => Ok(()),
        })
    }

    /// Update one integer attribute of a subobject in place, returning
    /// whether the subobject exists. Cache invalidation is the caller's
    /// responsibility (see `query::apply_update`).
    pub fn update_child_ret(&self, oid: Oid, ret_idx: usize, v: i64) -> Result<bool, CorError> {
        assert!(ret_idx < 3, "ChildRel has ret1..ret3");
        match &self.storage {
            Storage::Standard { .. } => {
                let tree = self.child_tree(oid.rel)?;
                let key = oid.to_key_bytes();
                let Some(rec) = tree.get(&key)? else {
                    return Ok(false);
                };
                let mut t = decode(&self.child_schema, &rec)?;
                t.set(1 + ret_idx, Value::Int(v));
                let rec = encode(&self.child_schema, &t)?;
                tree.update(&key, &rec)?;
                Ok(true)
            }
            Storage::Clustered { cluster, oid_index } => {
                let Some((ckey, leaf)) = Self::tid_of(oid_index, oid)? else {
                    return Ok(false);
                };
                let decoded = cluster.get_with_hint(leaf, &ckey, |rec| {
                    Ok::<_, CorError>(decode(&self.child_schema, rec)?)
                })?;
                let Some(mut t) = decoded else {
                    return Ok(false);
                };
                t.set(1 + ret_idx, Value::Int(v));
                let rec = encode(&self.child_schema, &t)?;
                cluster.update_with_hint(leaf, &ckey, &rec)?;
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    /// Tiny hand-built spec: 4 parents, one ChildRel of 6 subobjects.
    /// Parents 0 and 1 share a unit; parents 2, 3 have their own.
    pub(crate) fn tiny_spec() -> DatabaseSpec {
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        let child = |k: u64| SubobjectSpec {
            oid: c(k),
            rets: [k as i64 * 10, k as i64 * 100, k as i64 * 1000],
            dummy: "x".repeat(20),
        };
        DatabaseSpec {
            parents: vec![
                ObjectSpec {
                    key: 0,
                    rets: [0, 0, 0],
                    dummy: "p".repeat(30),
                    children: vec![c(0), c(1)],
                },
                ObjectSpec {
                    key: 1,
                    rets: [1, 1, 1],
                    dummy: "p".repeat(30),
                    children: vec![c(0), c(1)],
                },
                ObjectSpec {
                    key: 2,
                    rets: [2, 2, 2],
                    dummy: "p".repeat(30),
                    children: vec![c(2), c(3)],
                },
                ObjectSpec {
                    key: 3,
                    rets: [3, 3, 3],
                    dummy: "p".repeat(30),
                    children: vec![c(4), c(5)],
                },
            ],
            child_rels: vec![(0..6).map(child).collect()],
        }
    }

    fn tiny_assignment() -> ClusterAssignment {
        // Deterministic: every subobject clustered with the lowest-keyed
        // parent that references it.
        let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
        ClusterAssignment::from_pairs(vec![
            (c(0), 0),
            (c(1), 0),
            (c(2), 2),
            (c(3), 2),
            (c(4), 3),
            (c(5), 3),
        ])
    }

    #[test]
    fn standard_build_and_parent_scan() {
        let db = CorDatabase::build_standard(pool(32), &tiny_spec(), None).unwrap();
        assert_eq!(db.parent_count(), 4);
        assert_eq!(db.num_child_rels(), 1);
        assert_eq!(db.child_count(0), 6);
        let ps = db.parents_in_range(1, 2).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].0, 1);
        assert_eq!(ps[1].0, 2);
        assert_eq!(
            ps[0].1,
            vec![Oid::new(CHILD_REL_BASE, 0), Oid::new(CHILD_REL_BASE, 1)]
        );
    }

    #[test]
    fn clustered_build_and_parent_scan_agree_with_standard() {
        let spec = tiny_spec();
        let std_db = CorDatabase::build_standard(pool(32), &spec, None).unwrap();
        let clu_db = CorDatabase::build_clustered(pool(32), &spec, &tiny_assignment()).unwrap();
        for (lo, hi) in [(0, 3), (1, 1), (2, 3), (0, 0)] {
            assert_eq!(
                std_db.parents_in_range(lo, hi).unwrap(),
                clu_db.parents_in_range(lo, hi).unwrap(),
                "range {lo}..={hi}"
            );
        }
    }

    #[test]
    fn fetch_child_record_both_representations() {
        let spec = tiny_spec();
        let std_db = CorDatabase::build_standard(pool(32), &spec, None).unwrap();
        let clu_db = CorDatabase::build_clustered(pool(32), &spec, &tiny_assignment()).unwrap();
        for k in 0..6u64 {
            let oid = Oid::new(CHILD_REL_BASE, k);
            let a = std_db.fetch_child_record(oid).unwrap().unwrap();
            let b = clu_db.fetch_child_record(oid).unwrap().unwrap();
            assert_eq!(a, b, "child {k}");
        }
        let absent = Oid::new(CHILD_REL_BASE, 99);
        assert!(std_db.fetch_child_record(absent).unwrap().is_none());
        assert!(clu_db.fetch_child_record(absent).unwrap().is_none());
    }

    #[test]
    fn update_child_ret_in_place_both_representations() {
        let spec = tiny_spec();
        for db in [
            CorDatabase::build_standard(pool(32), &spec, None).unwrap(),
            CorDatabase::build_clustered(pool(32), &spec, &tiny_assignment()).unwrap(),
        ] {
            let oid = Oid::new(CHILD_REL_BASE, 2);
            assert!(db.update_child_ret(oid, 0, -555).unwrap());
            let rec = db.fetch_child_record(oid).unwrap().unwrap();
            let t = decode(&child_schema(), &rec).unwrap();
            assert_eq!(t.get(1).as_int(), Some(-555));
            assert_eq!(t.get(2).as_int(), Some(200), "other attrs untouched");
            assert!(!db
                .update_child_ret(Oid::new(CHILD_REL_BASE, 99), 0, 0)
                .unwrap());
        }
    }

    #[test]
    fn cluster_key_codec() {
        let oid = Oid::new(CHILD_REL_BASE, 12345);
        let k = cluster_key(77, true, oid);
        assert_eq!(decode_cluster_key(&k), Some((77, true, oid)));
        let k = cluster_key(77, false, Oid::new(PARENT_REL, 77));
        assert_eq!(
            decode_cluster_key(&k),
            Some((77, false, Oid::new(PARENT_REL, 77)))
        );
        assert_eq!(decode_cluster_key(&[0u8; 5]), None);
    }

    #[test]
    fn cluster_keys_order_parent_before_children() {
        let p = cluster_key(5, false, Oid::new(PARENT_REL, 5));
        let c = cluster_key(5, true, Oid::new(CHILD_REL_BASE, 0));
        let next_p = cluster_key(6, false, Oid::new(PARENT_REL, 6));
        assert!(p < c);
        assert!(c < next_p);
    }

    #[test]
    fn wrong_representation_is_an_error() {
        let spec = tiny_spec();
        let std_db = CorDatabase::build_standard(pool(32), &spec, None).unwrap();
        assert!(matches!(
            std_db.cluster(),
            Err(CorError::WrongRepresentation(_))
        ));
        let clu_db = CorDatabase::build_clustered(pool(32), &spec, &tiny_assignment()).unwrap();
        assert!(matches!(
            clu_db.parent_tree(),
            Err(CorError::WrongRepresentation(_))
        ));
        assert!(matches!(
            clu_db.child_tree(CHILD_REL_BASE),
            Err(CorError::WrongRepresentation(_))
        ));
    }

    #[test]
    fn cache_attachment() {
        let spec = tiny_spec();
        let db = CorDatabase::build_standard(
            pool(32),
            &spec,
            Some(CacheConfig {
                capacity: 8,
                policy: EvictionPolicy::Lru,
                ..CacheConfig::default()
            }),
        )
        .unwrap();
        assert!(db.has_cache());
        assert!(db.cache_mut().unwrap().is_empty());
        let no_cache = CorDatabase::build_standard(pool(32), &spec, None).unwrap();
        assert!(matches!(no_cache.cache_mut(), Err(CorError::NoCache)));
    }

    #[test]
    fn unassigned_subobjects_land_in_the_unclustered_tail() {
        let spec = tiny_spec();
        // Only subobject 0 is clustered; the rest go to the tail area and
        // stay reachable through the OID index.
        let partial = ClusterAssignment::from_pairs(vec![(Oid::new(CHILD_REL_BASE, 0), 0)]);
        let db = CorDatabase::build_clustered(pool(32), &spec, &partial).unwrap();
        for k in 0..6u64 {
            assert!(
                db.fetch_child_record(Oid::new(CHILD_REL_BASE, k))
                    .unwrap()
                    .is_some(),
                "child {k} must remain reachable"
            );
        }
        // Parent scans never see the tail area.
        let ps = db.parents_in_range(0, 3).unwrap();
        assert_eq!(ps.len(), 4);
    }
}
