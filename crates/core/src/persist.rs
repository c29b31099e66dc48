//! Saved-state snapshots of the strategy backends.
//!
//! The engine catalog (in `cor-workload`) persists everything a process
//! restart loses: which files a database is made of (their structural
//! metadata — roots, bucket directories), the cardinality counters that
//! act as OID allocators, and the cache directories whose disk halves
//! live in hash relations. This module defines the serializable snapshot
//! types, their byte codec, and the `save_state` / `open_state`
//! constructors on [`CorDatabase`](crate::CorDatabase) and
//! [`ProcDatabase`](crate::procedural::ProcDatabase) (declared next to
//! their private fields).
//!
//! Two recovery caveats are inherent to the design and shared by every
//! consumer:
//!
//! * **Staleness.** A snapshot describes the database as of the last
//!   checkpoint or clean close. The durable workloads are the paper's
//!   in-place-update regime, where file roots do not drift between
//!   checkpoints; what does drift (cache contents, hash-file record
//!   counts) is reconciled at open.
//! * **One-way cache reconcile.** Hash files have no scan API, so a
//!   recovered cache directory is reconciled by *probing*: directory
//!   entries whose record is gone are dropped. Records inserted after the
//!   snapshot are invisible to the directory and simply leak bounded
//!   space until overwritten — they can never cause a wrong answer
//!   because every probe consults the directory first.

use crate::cache::EvictionPolicy;
use crate::procedural::ProcCaching;
use crate::CorError;
use cor_access::{BTreeMeta, HashMeta};
use cor_relational::{Oid, Schema, ValueType, OID_BYTES};

/// Byte-stream writer for catalog snapshots (little-endian, length-prefixed).
#[derive(Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Byte-stream reader matching [`Enc`]. Decode errors surface as
/// [`CorError::Durability`]; the engine catalog is CRC-framed, so they
/// indicate a codec bug rather than disk corruption.
pub struct Dec<'a>(pub &'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CorError> {
        if self.0.len() < n {
            return Err(CorError::Durability("truncated catalog snapshot".into()));
        }
        let (h, t) = self.0.split_at(n);
        self.0 = t;
        Ok(h)
    }
    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CorError> {
        Ok(self.take(1)?[0])
    }
    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CorError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CorError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, CorError> {
        Ok(self.u64()? as i64)
    }
    /// Read a `u32` element count, refusing one the rest of the stream
    /// could not hold at `min_bytes` encoded bytes per element — so a
    /// stored count never sizes an allocation the bytes do not back.
    pub fn count(&mut self, min_bytes: usize, field: &str) -> Result<usize, CorError> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min_bytes {
            return Err(CorError::Durability(format!(
                "catalog snapshot records {n} {field} in a {}-byte tail",
                self.0.len()
            )));
        }
        Ok(n)
    }
    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CorError> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CorError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| CorError::Durability("catalog snapshot holds invalid UTF-8".into()))
    }
    /// True when the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Encoded size of one [`BTreeMeta`]: five `u32`s and a `u64`.
const BTREE_META_BYTES: usize = 28;

fn enc_btree(e: &mut Enc, m: &BTreeMeta) {
    e.u32(m.key_len as u32);
    e.u32(m.root);
    e.u32(m.first_leaf);
    e.u64(m.len);
    e.u32(m.height);
    e.u32(m.leaf_pages);
}

fn dec_btree(d: &mut Dec) -> Result<BTreeMeta, CorError> {
    Ok(BTreeMeta {
        key_len: d.u32()? as u16,
        root: d.u32()?,
        first_leaf: d.u32()?,
        len: d.u64()?,
        height: d.u32()?,
        leaf_pages: d.u32()?,
    })
}

fn enc_hash(e: &mut Enc, m: &HashMeta) {
    e.u32(m.first_bucket);
    e.u32(m.num_buckets);
    e.u64(m.len);
}

fn dec_hash(d: &mut Dec) -> Result<HashMeta, CorError> {
    Ok(HashMeta {
        first_bucket: d.u32()?,
        num_buckets: d.u32()?,
        len: d.u64()?,
    })
}

/// Serialize a relation schema as `(name, type-tag)` columns.
pub fn enc_schema(e: &mut Enc, s: &Schema) {
    e.u32(s.arity() as u32);
    for c in s.columns() {
        e.str(&c.name);
        e.u8(match c.ty {
            ValueType::Int => 0,
            ValueType::Str => 1,
            ValueType::Oid => 2,
            ValueType::OidList => 3,
            ValueType::Bytes => 4,
        });
    }
}

/// Decode a schema written by [`enc_schema`].
pub fn dec_schema(d: &mut Dec) -> Result<Schema, CorError> {
    // A column is at least a length prefix and a type tag.
    let n = d.count(5, "columns")?;
    let mut cols: Vec<(String, ValueType)> = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        if cols.iter().any(|(c, _)| *c == name) {
            return Err(CorError::Durability(format!(
                "catalog snapshot repeats column name {name:?}"
            )));
        }
        let ty = match d.u8()? {
            0 => ValueType::Int,
            1 => ValueType::Str,
            2 => ValueType::Oid,
            3 => ValueType::OidList,
            4 => ValueType::Bytes,
            _ => return Err(CorError::Durability("unknown column type tag".into())),
        };
        cols.push((name, ty));
    }
    let refs: Vec<(&str, ValueType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Ok(Schema::new(&refs))
}

/// Snapshot of a [`UnitCache`](crate::UnitCache): the hash relation's
/// metadata plus the in-memory directory in LRU order (oldest first).
#[derive(Debug, Clone)]
pub struct SavedUnitCache {
    /// The disk-resident `Cache` relation.
    pub file: HashMeta,
    /// `SizeCache` bound, in units.
    pub capacity: usize,
    /// Replacement policy.
    pub policy: EvictionPolicy,
    /// `(hashkey, member OIDs)` per cached unit, oldest first.
    pub entries: Vec<(u64, Vec<Oid>)>,
}

impl SavedUnitCache {
    /// Serialize into `e`.
    pub fn encode(&self, e: &mut Enc) {
        enc_hash(e, &self.file);
        e.u64(self.capacity as u64);
        e.u8(match self.policy {
            EvictionPolicy::Lru => 0,
            EvictionPolicy::Random => 1,
        });
        e.u32(self.entries.len() as u32);
        for (hk, members) in &self.entries {
            e.u64(*hk);
            e.u32(members.len() as u32);
            for m in members {
                e.0.extend_from_slice(&m.to_key_bytes());
            }
        }
    }

    /// Decode from `d`.
    pub fn decode(d: &mut Dec) -> Result<Self, CorError> {
        let file = dec_hash(d)?;
        let capacity = d.u64()? as usize;
        let policy = match d.u8()? {
            0 => EvictionPolicy::Lru,
            1 => EvictionPolicy::Random,
            _ => return Err(CorError::Durability("unknown eviction policy tag".into())),
        };
        let n = d.count(12, "cache entries")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let hk = d.u64()?;
            let m = d.count(OID_BYTES, "cache members")?;
            let mut members = Vec::with_capacity(m);
            for _ in 0..m {
                let b = d.take(OID_BYTES)?;
                members.push(
                    Oid::from_key_bytes(b)
                        .ok_or_else(|| CorError::Durability("bad OID in snapshot".into()))?,
                );
            }
            entries.push((hk, members));
        }
        Ok(SavedUnitCache {
            file,
            capacity,
            policy,
            entries,
        })
    }
}

/// Snapshot of a [`ProcCache`](crate::procedural::ProcCache): hash
/// relation metadata plus the directory as `(QUEL text, kind)` in LRU
/// order — hashkeys are recomputed from the reparsed queries.
#[derive(Debug, Clone)]
pub struct SavedProcCache {
    /// The disk-resident cache relation.
    pub file: HashMeta,
    /// Capacity bound, in cached results.
    pub capacity: usize,
    /// `(stored-query QUEL, kind tag: 0 = OIDs, 1 = values)`, oldest first.
    pub entries: Vec<(String, u8)>,
}

impl SavedProcCache {
    /// Serialize into `e`.
    pub fn encode(&self, e: &mut Enc) {
        enc_hash(e, &self.file);
        e.u64(self.capacity as u64);
        e.u32(self.entries.len() as u32);
        for (quel, kind) in &self.entries {
            e.str(quel);
            e.u8(*kind);
        }
    }

    /// Decode from `d`.
    pub fn decode(d: &mut Dec) -> Result<Self, CorError> {
        let file = dec_hash(d)?;
        let capacity = d.u64()? as usize;
        let n = d.count(5, "cache entries")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let quel = d.str()?;
            let kind = d.u8()?;
            entries.push((quel, kind));
        }
        Ok(SavedProcCache {
            file,
            capacity,
            entries,
        })
    }
}

/// Snapshot of the physical representation of a
/// [`CorDatabase`](crate::CorDatabase).
#[derive(Debug, Clone)]
pub enum SavedStorage {
    /// ParentRel + ChildRel B-trees.
    Standard {
        /// ParentRel.
        parent: BTreeMeta,
        /// ChildRel\[i\].
        children: Vec<BTreeMeta>,
    },
    /// ClusterRel + OID ISAM index.
    Clustered {
        /// The combined relation.
        cluster: BTreeMeta,
        /// The OID index.
        oid_index: BTreeMeta,
    },
}

/// Snapshot of the cache attachment of a standard-representation database.
#[derive(Debug, Clone)]
pub enum SavedCacheState {
    /// Outside placement: full [`SavedUnitCache`] state.
    Outside(SavedUnitCache),
    /// Inside placement: only the capacity bound — holders and the
    /// invalidation registry are rebuilt by scanning ParentRel, whose
    /// `cached` column is the durable source of truth.
    Inside {
        /// `SizeCache` bound.
        capacity: usize,
    },
}

/// Complete snapshot of a [`CorDatabase`](crate::CorDatabase).
#[derive(Debug, Clone)]
pub struct SavedOidDb {
    /// File roots per representation.
    pub storage: SavedStorage,
    /// ParentRel schema.
    pub parent_schema: Schema,
    /// ChildRel schema.
    pub child_schema: Schema,
    /// ParentRel cardinality (the parent OID allocator's high-water mark).
    pub parent_count: u64,
    /// Cardinality per ChildRel.
    pub child_counts: Vec<u64>,
    /// Cache attachment, if any.
    pub cache: Option<SavedCacheState>,
}

impl SavedOidDb {
    /// Serialize into `e`.
    pub fn encode(&self, e: &mut Enc) {
        match &self.storage {
            SavedStorage::Standard { parent, children } => {
                e.u8(0);
                enc_btree(e, parent);
                e.u32(children.len() as u32);
                for c in children {
                    enc_btree(e, c);
                }
            }
            SavedStorage::Clustered { cluster, oid_index } => {
                e.u8(1);
                enc_btree(e, cluster);
                enc_btree(e, oid_index);
            }
        }
        enc_schema(e, &self.parent_schema);
        enc_schema(e, &self.child_schema);
        e.u64(self.parent_count);
        e.u32(self.child_counts.len() as u32);
        for &c in &self.child_counts {
            e.u64(c);
        }
        match &self.cache {
            None => e.u8(0),
            Some(SavedCacheState::Outside(c)) => {
                e.u8(1);
                c.encode(e);
            }
            Some(SavedCacheState::Inside { capacity }) => {
                e.u8(2);
                e.u64(*capacity as u64);
            }
        }
    }

    /// Decode from `d`.
    pub fn decode(d: &mut Dec) -> Result<Self, CorError> {
        let storage = match d.u8()? {
            0 => {
                let parent = dec_btree(d)?;
                let n = d.count(BTREE_META_BYTES, "child relations")?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(dec_btree(d)?);
                }
                SavedStorage::Standard { parent, children }
            }
            1 => SavedStorage::Clustered {
                cluster: dec_btree(d)?,
                oid_index: dec_btree(d)?,
            },
            _ => return Err(CorError::Durability("unknown storage tag".into())),
        };
        let parent_schema = dec_schema(d)?;
        let child_schema = dec_schema(d)?;
        let parent_count = d.u64()?;
        let n = d.count(8, "child counts")?;
        let mut child_counts = Vec::with_capacity(n);
        for _ in 0..n {
            child_counts.push(d.u64()?);
        }
        let cache = match d.u8()? {
            0 => None,
            1 => Some(SavedCacheState::Outside(SavedUnitCache::decode(d)?)),
            2 => Some(SavedCacheState::Inside {
                capacity: d.u64()? as usize,
            }),
            _ => return Err(CorError::Durability("unknown cache tag".into())),
        };
        Ok(SavedOidDb {
            storage,
            parent_schema,
            child_schema,
            parent_count,
            child_counts,
            cache,
        })
    }
}

/// Complete snapshot of a
/// [`ProcDatabase`](crate::procedural::ProcDatabase). The `by_query`
/// index and the inside-holder set are *not* stored: both are rebuilt
/// from a ParentRel scan at open (the stored QUEL texts and `cached`
/// columns are the durable truth).
#[derive(Debug, Clone)]
pub struct SavedProcDb {
    /// ParentRel.
    pub parent: BTreeMeta,
    /// ChildRel\[i\].
    pub children: Vec<BTreeMeta>,
    /// ParentRel schema.
    pub parent_schema: Schema,
    /// ParentRel cardinality.
    pub parent_count: u64,
    /// Caching mode.
    pub caching: ProcCaching,
    /// Outside-cache snapshot when the mode has one.
    pub outside: Option<SavedProcCache>,
}

impl SavedProcDb {
    /// Serialize into `e`.
    pub fn encode(&self, e: &mut Enc) {
        enc_btree(e, &self.parent);
        e.u32(self.children.len() as u32);
        for c in &self.children {
            enc_btree(e, c);
        }
        enc_schema(e, &self.parent_schema);
        e.u64(self.parent_count);
        match self.caching {
            ProcCaching::None => e.u8(0),
            ProcCaching::OutsideValues(cap) => {
                e.u8(1);
                e.u64(cap as u64);
            }
            ProcCaching::OutsideOids(cap) => {
                e.u8(2);
                e.u64(cap as u64);
            }
            ProcCaching::InsideValues(cap) => {
                e.u8(3);
                e.u64(cap as u64);
            }
        }
        match &self.outside {
            None => e.u8(0),
            Some(c) => {
                e.u8(1);
                c.encode(e);
            }
        }
    }

    /// Decode from `d`.
    pub fn decode(d: &mut Dec) -> Result<Self, CorError> {
        let parent = dec_btree(d)?;
        let n = d.count(BTREE_META_BYTES, "child relations")?;
        let mut children = Vec::with_capacity(n);
        for _ in 0..n {
            children.push(dec_btree(d)?);
        }
        let parent_schema = dec_schema(d)?;
        let parent_count = d.u64()?;
        let caching = match d.u8()? {
            0 => ProcCaching::None,
            1 => ProcCaching::OutsideValues(d.u64()? as usize),
            2 => ProcCaching::OutsideOids(d.u64()? as usize),
            3 => ProcCaching::InsideValues(d.u64()? as usize),
            _ => return Err(CorError::Durability("unknown proc-caching tag".into())),
        };
        let outside = match d.u8()? {
            0 => None,
            1 => Some(SavedProcCache::decode(d)?),
            _ => return Err(CorError::Durability("unknown outside-cache tag".into())),
        };
        Ok(SavedProcDb {
            parent,
            children,
            parent_schema,
            parent_count,
            caching,
            outside,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btree(root: u32) -> BTreeMeta {
        BTreeMeta {
            key_len: 10,
            root,
            first_leaf: root + 1,
            len: 42,
            height: 2,
            leaf_pages: 7,
        }
    }

    #[test]
    fn oid_db_snapshot_roundtrip() {
        let saved = SavedOidDb {
            storage: SavedStorage::Standard {
                parent: btree(3),
                children: vec![btree(9), btree(20)],
            },
            parent_schema: crate::database::parent_schema(),
            child_schema: crate::database::child_schema(),
            parent_count: 150,
            child_counts: vec![600, 601],
            cache: Some(SavedCacheState::Outside(SavedUnitCache {
                file: HashMeta {
                    first_bucket: 30,
                    num_buckets: 16,
                    len: 2,
                },
                capacity: 20,
                policy: EvictionPolicy::Lru,
                entries: vec![
                    (77, vec![Oid::new(10, 1), Oid::new(10, 2)]),
                    (99, vec![Oid::new(10, 5)]),
                ],
            })),
        };
        let mut e = Enc::default();
        saved.encode(&mut e);
        let mut d = Dec(&e.0);
        let back = SavedOidDb::decode(&mut d).unwrap();
        assert!(d.is_empty());
        assert_eq!(back.parent_count, 150);
        assert_eq!(back.child_counts, vec![600, 601]);
        assert_eq!(back.parent_schema, crate::database::parent_schema());
        let SavedStorage::Standard { parent, children } = &back.storage else {
            panic!("standard storage expected");
        };
        assert_eq!(parent.root, 3);
        assert_eq!(children.len(), 2);
        let Some(SavedCacheState::Outside(c)) = &back.cache else {
            panic!("outside cache expected");
        };
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.entries[0].1, vec![Oid::new(10, 1), Oid::new(10, 2)]);
    }

    #[test]
    fn clustered_and_inside_variants_roundtrip() {
        let saved = SavedOidDb {
            storage: SavedStorage::Clustered {
                cluster: btree(2),
                oid_index: btree(50),
            },
            parent_schema: crate::database::parent_schema(),
            child_schema: crate::database::child_schema(),
            parent_count: 10,
            child_counts: vec![40],
            cache: Some(SavedCacheState::Inside { capacity: 8 }),
        };
        let mut e = Enc::default();
        saved.encode(&mut e);
        let back = SavedOidDb::decode(&mut Dec(&e.0)).unwrap();
        assert!(matches!(back.storage, SavedStorage::Clustered { .. }));
        assert!(matches!(
            back.cache,
            Some(SavedCacheState::Inside { capacity: 8 })
        ));
    }

    #[test]
    fn proc_db_snapshot_roundtrip() {
        let saved = SavedProcDb {
            parent: btree(4),
            children: vec![btree(12)],
            parent_schema: crate::procedural::proc_parent_schema(),
            parent_count: 99,
            caching: ProcCaching::OutsideValues(16),
            outside: Some(SavedProcCache {
                file: HashMeta {
                    first_bucket: 60,
                    num_buckets: 16,
                    len: 1,
                },
                capacity: 16,
                entries: vec![("retrieve (child.all) where 1 <= child.OID <= 5".into(), 1)],
            }),
        };
        let mut e = Enc::default();
        saved.encode(&mut e);
        let back = SavedProcDb::decode(&mut Dec(&e.0)).unwrap();
        assert_eq!(back.parent_count, 99);
        assert_eq!(back.caching, ProcCaching::OutsideValues(16));
        assert_eq!(back.outside.unwrap().entries.len(), 1);
    }

    #[test]
    fn truncated_snapshots_error_cleanly() {
        let saved = SavedProcDb {
            parent: btree(4),
            children: vec![],
            parent_schema: crate::procedural::proc_parent_schema(),
            parent_count: 1,
            caching: ProcCaching::None,
            outside: None,
        };
        let mut e = Enc::default();
        saved.encode(&mut e);
        for cut in [0, 5, e.0.len() - 1] {
            assert!(
                SavedProcDb::decode(&mut Dec(&e.0[..cut])).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    /// Stored bytes are outside input: a schema that repeats a column
    /// name, and counts the rest of the stream cannot hold, are typed
    /// errors — not a `Schema::new` assert, not an allocation sized by
    /// the stored count.
    #[test]
    fn repeated_columns_and_unbacked_counts_are_typed_errors() {
        let mut e = Enc::default();
        e.u32(2);
        for _ in 0..2 {
            e.str("ret1");
            e.u8(0);
        }
        let err = dec_schema(&mut Dec(&e.0)).unwrap_err();
        assert!(err.to_string().contains("repeats column name"), "{err}");

        let mut e = Enc::default();
        enc_btree(&mut e, &btree(4));
        e.u32(u32::MAX); // ChildRel count
        let err = SavedProcDb::decode(&mut Dec(&e.0)).unwrap_err();
        assert!(err.to_string().contains("child relations"), "{err}");
    }
}
