//! The persistent **engine catalog** — everything `Engine::open` needs to
//! reconstruct a running engine from a store, with no spec from the
//! caller.
//!
//! The catalog is one CRC-framed byte blob, the one blob the access-layer
//! [`Catalog`](cor_access::Catalog) keeps behind page 0's chain head, so
//! it travels through the same WAL-before-data path as every other page.
//! It records:
//!
//! * a magic + version header ([`ENGINE_CATALOG_VERSION`]) so foreign or
//!   future stores fail loudly with
//!   [`CorError::CatalogMissing`] / [`CorError::CatalogVersion`];
//! * a `clean_shutdown` flag — `true` only between
//!   [`Engine::close`](crate::Engine::close) and the next open;
//! * the pool's construction settings (`pool_pages`, `shards`,
//!   replacement policy) and the [`ExecOptions`] the engine ran with — `open` rebuilds the pool from the catalog, not
//!   from the caller's builder;
//! * the buffer pool's free-page list, reused only after a **clean**
//!   shutdown (after a crash the list may predate logged allocations, so
//!   it is discarded and those pages leak — bounded, and safe);
//! * the backend snapshot ([`SavedBackend`]): strategy kind plus the
//!   per-strategy file roots, schemas, OID allocators and cache
//!   directories from [`complexobj::persist`].

use complexobj::persist::{Dec, Enc};
use complexobj::{CorError, ExecOptions, JoinChoice, SavedOidDb, SavedProcDb};
use cor_pagestore::{PageId, ReplacementPolicy};
use cor_wal::crc::crc32;

/// On-disk layout version this build writes, and the only one it reads.
///
/// v4 drops the three reserved `u64`s that v1–v3 carried after
/// `sort_work_mem` (once the keyed-probe `batch`, the merge scan's
/// `readahead` and the pool's async `queue_depth`), and page 0 holds a
/// bare chain head instead of a named pointer record. A blob stamped with
/// any other version is [`CorError::CatalogVersion`]; a page 0 in the
/// earlier layout does not parse as a head, so such a store is
/// [`CorError::CatalogMissing`].
///
/// The policy byte's numbering is frozen: `Lru` = 0, `Sieve` = 3. Tags
/// 1, 2 and 4 belonged to retired policies and are never reused; like
/// any other tag they fail as an "unknown policy tag".
pub const ENGINE_CATALOG_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"CORENGIN";

fn policy_tag(policy: ReplacementPolicy) -> u8 {
    match policy {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::Sieve => 3,
    }
}

fn policy_from_tag(tag: u8) -> Result<ReplacementPolicy, CorError> {
    match tag {
        0 => Ok(ReplacementPolicy::Lru),
        3 => Ok(ReplacementPolicy::Sieve),
        _ => Err(CorError::Durability("unknown policy tag".into())),
    }
}

/// Which strategy backend the store holds, with its full snapshot.
#[derive(Debug, Clone)]
pub enum SavedBackend {
    /// A single OID-representation database — standard or clustered is
    /// recorded inside [`SavedOidDb::storage`].
    Oid(SavedOidDb),
    /// A multi-level hierarchy chain (level 0 first) sharing one pool.
    Levels(Vec<SavedOidDb>),
    /// A procedural-representation database.
    Proc(SavedProcDb),
}

/// The decoded engine catalog. See the module docs for field semantics.
#[derive(Debug, Clone)]
pub struct EngineCatalog {
    /// `true` only when the engine was shut down via `Engine::close`.
    pub clean_shutdown: bool,
    /// Buffer pool capacity, in pages.
    pub pool_pages: usize,
    /// Lock-striped pool shards.
    pub shards: usize,
    /// Pool replacement policy.
    pub policy: ReplacementPolicy,
    /// Execution options every query runs with.
    pub opts: ExecOptions,
    /// Free-page list at save time (valid only under `clean_shutdown`).
    pub free_pages: Vec<PageId>,
    /// The strategy backend snapshot.
    pub backend: SavedBackend,
}

impl EngineCatalog {
    /// Serialize: `MAGIC ∥ version ∥ crc32(payload) ∥ payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u8(self.clean_shutdown as u8);
        e.u64(self.pool_pages as u64);
        e.u32(self.shards as u32);
        e.u8(policy_tag(self.policy));
        e.u64(self.opts.smart_threshold);
        e.u8(match self.opts.join {
            JoinChoice::Auto => 0,
            JoinChoice::ForceMerge => 1,
            JoinChoice::ForceIterative => 2,
        });
        e.u64(self.opts.sort_work_mem as u64);
        e.u32(self.free_pages.len() as u32);
        for &pid in &self.free_pages {
            e.u32(pid);
        }
        match &self.backend {
            SavedBackend::Oid(db) => {
                e.u8(0);
                db.encode(&mut e);
            }
            SavedBackend::Levels(levels) => {
                e.u8(1);
                e.u32(levels.len() as u32);
                for l in levels {
                    l.encode(&mut e);
                }
            }
            SavedBackend::Proc(db) => {
                e.u8(2);
                db.encode(&mut e);
            }
        }
        let mut out = Vec::with_capacity(16 + e.0.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&ENGINE_CATALOG_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&e.0).to_le_bytes());
        out.extend_from_slice(&e.0);
        out
    }

    /// Decode a blob written by [`encode`](Self::encode).
    ///
    /// * no/garbled header → [`CorError::CatalogMissing`];
    /// * wrong version → [`CorError::CatalogVersion`];
    /// * CRC mismatch or truncated payload → [`CorError::Durability`]
    ///   (the blob sits under the WAL, so this indicates a bug, not a
    ///   torn write);
    /// * pool settings no pool can be built from (zero frames or shards,
    ///   fewer frames than shards) or an element count the
    ///   payload cannot hold → [`CorError::Durability`] naming the field.
    ///   The blob is outside input: `open` hands these values to
    ///   [`BufferPool::builder`](cor_pagestore::BufferPool::builder),
    ///   whose asserts are for callers, not for stored bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CorError> {
        if bytes.len() < 16 || &bytes[..8] != MAGIC {
            return Err(CorError::CatalogMissing);
        }
        let found = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if found != ENGINE_CATALOG_VERSION {
            return Err(CorError::CatalogVersion {
                found,
                expected: ENGINE_CATALOG_VERSION,
            });
        }
        let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        let payload = &bytes[16..];
        if crc32(payload) != crc {
            return Err(CorError::Durability("engine catalog CRC mismatch".into()));
        }
        let mut d = Dec(payload);
        let clean_shutdown = d.u8()? != 0;
        let pool_pages = d.u64()? as usize;
        let shards = d.u32()? as usize;
        let policy = policy_from_tag(d.u8()?)?;
        let smart_threshold = d.u64()?;
        let join = match d.u8()? {
            0 => JoinChoice::Auto,
            1 => JoinChoice::ForceMerge,
            2 => JoinChoice::ForceIterative,
            _ => return Err(CorError::Durability("unknown join tag".into())),
        };
        let sort_work_mem = d.u64()? as usize;
        for (field, value) in [("pool_pages", pool_pages), ("shards", shards)] {
            if value == 0 {
                return Err(CorError::Durability(format!(
                    "engine catalog records {field} = 0"
                )));
            }
        }
        if pool_pages < shards {
            return Err(CorError::Durability(format!(
                "engine catalog records pool_pages = {pool_pages} < shards = {shards}"
            )));
        }
        let n = d.count(4, "free_pages")?;
        let mut free_pages = Vec::with_capacity(n);
        for _ in 0..n {
            free_pages.push(d.u32()?);
        }
        let backend = match d.u8()? {
            0 => SavedBackend::Oid(SavedOidDb::decode(&mut d)?),
            1 => {
                let n = d.count(1, "levels")?;
                let mut levels = Vec::with_capacity(n);
                for _ in 0..n {
                    levels.push(SavedOidDb::decode(&mut d)?);
                }
                SavedBackend::Levels(levels)
            }
            2 => SavedBackend::Proc(SavedProcDb::decode(&mut d)?),
            _ => return Err(CorError::Durability("unknown backend tag".into())),
        };
        if !d.is_empty() {
            return Err(CorError::Durability(
                "trailing bytes after engine catalog".into(),
            ));
        }
        Ok(EngineCatalog {
            clean_shutdown,
            pool_pages,
            shards,
            policy,
            opts: ExecOptions {
                smart_threshold,
                join,
                sort_work_mem,
            },
            free_pages,
            backend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complexobj::persist::SavedStorage;
    use cor_access::BTreeMeta;

    fn sample() -> EngineCatalog {
        EngineCatalog {
            clean_shutdown: true,
            pool_pages: 100,
            shards: 4,
            policy: ReplacementPolicy::Sieve,
            opts: ExecOptions {
                smart_threshold: 123,
                join: JoinChoice::ForceMerge,
                sort_work_mem: 4096,
            },
            free_pages: vec![7, 9, 30],
            backend: SavedBackend::Oid(SavedOidDb {
                storage: SavedStorage::Standard {
                    parent: BTreeMeta {
                        key_len: 8,
                        root: 1,
                        first_leaf: 2,
                        len: 10,
                        height: 1,
                        leaf_pages: 3,
                    },
                    children: vec![],
                },
                parent_schema: complexobj::database::parent_schema(),
                child_schema: complexobj::database::child_schema(),
                parent_count: 10,
                child_counts: vec![],
                cache: None,
            }),
        }
    }

    #[test]
    fn roundtrip() {
        let cat = sample();
        let bytes = cat.encode();
        let back = EngineCatalog::decode(&bytes).unwrap();
        assert!(back.clean_shutdown);
        assert_eq!(back.pool_pages, 100);
        assert_eq!(back.shards, 4);
        assert_eq!(back.policy, ReplacementPolicy::Sieve);
        assert_eq!(back.opts, cat.opts);
        assert_eq!(back.free_pages, vec![7, 9, 30]);
        assert!(matches!(back.backend, SavedBackend::Oid(_)));
    }

    /// Offset of the policy byte in a blob: 16 header bytes, then
    /// clean_shutdown (1), pool_pages (8), shards (4).
    const POLICY_BYTE: usize = 16 + 13;

    #[test]
    fn every_policy_roundtrips_with_its_frozen_tag() {
        // The numbering is frozen.
        assert_eq!(policy_tag(ReplacementPolicy::Lru), 0);
        assert_eq!(policy_tag(ReplacementPolicy::Sieve), 3);
        assert_eq!(ReplacementPolicy::ALL.len(), 2);
        for p in ReplacementPolicy::ALL {
            let mut cat = sample();
            cat.policy = p;
            let blob = cat.encode();
            assert_eq!(blob[POLICY_BYTE], policy_tag(p));
            assert_eq!(EngineCatalog::decode(&blob).unwrap().policy, p);
        }
    }

    /// Only 0 and 3 are policy tags. The retired ones (1, 2, 4) and tags
    /// nobody ever wrote fail alike.
    #[test]
    fn every_other_policy_tag_is_unknown() {
        for tag in (0..=u8::MAX).filter(|t| ![0, 3].contains(t)) {
            let mut blob = sample().encode();
            blob[POLICY_BYTE] = tag;
            match EngineCatalog::decode(&recrc(&blob)) {
                Err(CorError::Durability(msg)) => {
                    assert_eq!(msg, "unknown policy tag", "tag {tag}")
                }
                other => panic!("tag {tag}: expected a typed error, got {other:?}"),
            }
        }
    }

    /// `blob` with its header's CRC fixed up to match its payload.
    fn recrc(blob: &[u8]) -> Vec<u8> {
        let mut out = blob.to_vec();
        out[12..16].copy_from_slice(&crc32(&blob[16..]).to_le_bytes());
        out
    }

    /// A CRC-valid blob is still outside input: settings no pool can be
    /// built from and counts the payload cannot hold come back as typed
    /// errors naming the field, never as a `BufferPool::builder` assert
    /// or an allocation sized by the stored count.
    #[test]
    fn unbuildable_settings_and_oversized_counts_are_typed_errors() {
        // Payload offsets: clean_shutdown 0, pool_pages 1, shards 9,
        // policy 13, smart_threshold 14, join 22, sort_work_mem 23,
        // free-page count 31, three free pages 35, backend tag 47,
        // level count 48.
        let oid = sample().encode();
        let mut levels = sample();
        levels.backend = SavedBackend::Levels(vec![]);
        let levels = levels.encode();
        let cases: [(&[u8], usize, &[u8], &str); 5] = [
            (&oid, 1, &0u64.to_le_bytes(), "pool_pages = 0"),
            (&oid, 9, &0u32.to_le_bytes(), "shards = 0"),
            (
                &oid,
                9,
                &101u32.to_le_bytes(),
                "pool_pages = 100 < shards = 101",
            ),
            (&oid, 31, &u32::MAX.to_le_bytes(), "free_pages"),
            (&levels, 48, &u32::MAX.to_le_bytes(), "levels"),
        ];
        for (blob, at, bytes, names) in cases {
            let mut blob = blob.to_vec();
            blob[16 + at..16 + at + bytes.len()].copy_from_slice(bytes);
            match EngineCatalog::decode(&recrc(&blob)) {
                Err(CorError::Durability(msg)) => assert!(msg.contains(names), "{names}: {msg}"),
                other => panic!("{names}: expected a typed error, got {other:?}"),
            }
        }
        // The smallest buildable settings pass.
        let mut blob = oid.clone();
        blob[16 + 1..16 + 9].copy_from_slice(&4u64.to_le_bytes());
        let back = EngineCatalog::decode(&recrc(&blob)).unwrap();
        assert_eq!((back.pool_pages, back.shards), (4, 4));
    }

    #[test]
    fn typed_header_errors() {
        assert!(matches!(
            EngineCatalog::decode(b"short"),
            Err(CorError::CatalogMissing)
        ));
        assert!(matches!(
            EngineCatalog::decode(&[0u8; 64]),
            Err(CorError::CatalogMissing)
        ));
        // Every other version, the earlier layouts' included.
        for found in [1, 3, 99] {
            let mut bytes = sample().encode();
            bytes[8] = found as u8; // version field
            assert!(matches!(
                EngineCatalog::decode(&bytes),
                Err(CorError::CatalogVersion {
                    found: f,
                    expected: 4
                }) if f == found
            ));
        }
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // payload corruption under a stale CRC
        assert!(matches!(
            EngineCatalog::decode(&bytes),
            Err(CorError::Durability(_))
        ));
    }
}
