//! The unit-value cache (outside caching, Sec. 2.3 / 3.2 / 4).
//!
//! Cached representation of units is kept **on disk** in the `Cache`
//! relation: "Associated with each unit is a hashkey which is a function of
//! the concatenation of the OID's in that unit. Cache is maintained as a
//! hash relation, hashed on hashkey." Cache probes, insertions and
//! invalidation deletes therefore cost real page I/O through the buffer
//! pool; only the in-memory bookkeeping (LRU order, I-lock table, member
//! lists) is free, as system-catalog state would be.
//!
//! Capacity is bounded in **units** (the paper's `SizeCache`, 1000 units ≈
//! 10% of a typical database). The paper does not specify a replacement
//! policy for a full cache; we use LRU over units and call this choice out
//! in DESIGN.md (an ablation bench compares it with random eviction).

use crate::ilock::{HashKey, ILockTable};
use cor_access::{AccessError, HashFile};
use cor_obs::{Phase, PhaseGuard};
use cor_pagestore::BufferPool;
use cor_relational::Oid;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The paper's `SizeCache` default: 1000 units.
pub const DEFAULT_SIZE_CACHE: usize = 1000;

/// Eviction policy when the cache is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least recently used unit (default).
    Lru,
    /// Evict an arbitrary unit (deterministic: smallest bookkeeping tick is
    /// replaced by a pseudo-random pick seeded from the hashkey).
    Random,
}

/// Hit/miss/maintenance counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Probes that found the unit cached.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Units inserted (materialized and cached).
    pub insertions: u64,
    /// Units deleted because a member subobject was updated.
    pub invalidations: u64,
    /// Units deleted to make room.
    pub evictions: u64,
}

struct CachedMeta {
    members: Vec<Oid>,
    tick: u64,
}

/// A small LRU set over `u64` identities, shared by the inside-caching
/// implementations (which track *which holders have a copy*, not the
/// copies themselves — those live in the holders' tuples).
#[derive(Debug, Default)]
pub(crate) struct LruSet {
    tick_of: HashMap<u64, u64>,
    order: BTreeMap<u64, u64>,
    tick: u64,
}

impl LruSet {
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.tick_of.contains_key(&key)
    }

    pub(crate) fn touch(&mut self, key: u64) {
        if let Some(old) = self.tick_of.get(&key).copied() {
            self.order.remove(&old);
        }
        self.tick += 1;
        self.tick_of.insert(key, self.tick);
        self.order.insert(self.tick, key);
    }

    pub(crate) fn remove(&mut self, key: u64) {
        if let Some(tick) = self.tick_of.remove(&key) {
            self.order.remove(&tick);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.tick_of.len()
    }

    pub(crate) fn lru_victim(&self) -> Option<u64> {
        self.order.values().next().copied()
    }
}

/// The bounded, disk-resident cache of unit values.
pub struct UnitCache {
    file: HashFile,
    capacity: usize,
    policy: EvictionPolicy,
    ilocks: ILockTable,
    entries: HashMap<HashKey, CachedMeta>,
    lru: BTreeMap<u64, HashKey>,
    tick: u64,
    counters: CacheCounters,
}

/// Encode the cached value of a unit: its member records, length-prefixed.
pub fn encode_unit_value(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + records.iter().map(|r| 2 + r.len()).sum::<usize>());
    out.extend_from_slice(&(records.len() as u16).to_le_bytes());
    for r in records {
        out.extend_from_slice(&(r.len() as u16).to_le_bytes());
        out.extend_from_slice(r);
    }
    out
}

/// Decode a cached unit value back into member records.
pub fn decode_unit_value(mut bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
    if bytes.len() < 2 {
        return None;
    }
    let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    bytes = &bytes[2..];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if bytes.len() < 2 {
            return None;
        }
        let len = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        bytes = &bytes[2..];
        if bytes.len() < len {
            return None;
        }
        out.push(bytes[..len].to_vec());
        bytes = &bytes[len..];
    }
    Some(out)
}

impl UnitCache {
    /// Create an empty cache bounded at `capacity` units.
    pub fn new(pool: Arc<BufferPool>, capacity: usize) -> Result<Self, AccessError> {
        Self::with_policy(pool, capacity, EvictionPolicy::Lru)
    }

    /// Create with an explicit eviction policy (for the ablation bench).
    pub fn with_policy(
        pool: Arc<BufferPool>,
        capacity: usize,
        policy: EvictionPolicy,
    ) -> Result<Self, AccessError> {
        assert!(capacity > 0, "SizeCache must be positive");
        // Size buckets so that chains stay short at full capacity
        // (~3 cached units fit a 2 KB page).
        let buckets = (capacity / 2).max(16);
        let file = HashFile::create(pool, buckets)?;
        Ok(UnitCache {
            file,
            capacity,
            policy,
            ilocks: ILockTable::new(),
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            counters: CacheCounters::default(),
        })
    }

    /// Number of cached units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `SizeCache` bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/maintenance counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn touch(&mut self, hashkey: HashKey) {
        if let Some(meta) = self.entries.get_mut(&hashkey) {
            self.lru.remove(&meta.tick);
            self.tick += 1;
            meta.tick = self.tick;
            self.lru.insert(self.tick, hashkey);
        }
    }

    /// Probe the cache for a unit: "Check if the value of the subobjects
    /// ... is cached."
    ///
    /// The presence check consults the in-memory cache directory (the
    /// hashkey table is system-catalog-sized metadata, like the I-lock
    /// table) and costs no I/O; SMART's breadth-first arm depends on
    /// being able to classify NumTop units cheaply. Reading the *value*
    /// of a cached unit goes to the disk-resident hash relation and is
    /// charged real page I/O.
    pub fn probe(&mut self, hashkey: HashKey) -> Result<Option<Vec<Vec<u8>>>, AccessError> {
        if !self.entries.contains_key(&hashkey) {
            self.counters.misses += 1;
            return Ok(None);
        }
        let _phase = PhaseGuard::enter(Phase::CacheProbe);
        let bytes = self
            .file
            .get(&hashkey.to_le_bytes())?
            .expect("directory and hash relation must agree");
        self.counters.hits += 1;
        self.touch(hashkey);
        Ok(Some(
            decode_unit_value(&bytes).expect("cache value must decode"),
        ))
    }

    /// Presence check only (no I/O, no counter/LRU effects).
    pub fn is_cached(&self, hashkey: HashKey) -> bool {
        self.entries.contains_key(&hashkey)
    }

    /// Cache a freshly materialized unit: evict if at capacity, store the
    /// value in the hash relation, and take I-locks for every member.
    pub fn insert(
        &mut self,
        hashkey: HashKey,
        members: &[Oid],
        records: &[Vec<u8>],
    ) -> Result<(), AccessError> {
        let _phase = PhaseGuard::enter(Phase::CacheMaintain);
        if self.entries.contains_key(&hashkey) {
            // Already cached (two objects sharing a unit raced to
            // materialize it within one query): refresh the value.
            self.file
                .put(&hashkey.to_le_bytes(), &encode_unit_value(records))?;
            self.touch(hashkey);
            return Ok(());
        }
        while self.entries.len() >= self.capacity {
            self.evict_one()?;
        }
        self.file
            .put(&hashkey.to_le_bytes(), &encode_unit_value(records))?;
        self.tick += 1;
        self.entries.insert(
            hashkey,
            CachedMeta {
                members: members.to_vec(),
                tick: self.tick,
            },
        );
        self.lru.insert(self.tick, hashkey);
        self.ilocks.lock_unit(hashkey, members);
        self.counters.insertions += 1;
        Ok(())
    }

    fn evict_one(&mut self) -> Result<(), AccessError> {
        let _phase = PhaseGuard::enter(Phase::CacheMaintain);
        let victim = match self.policy {
            EvictionPolicy::Lru => self.lru.keys().next().copied(),
            EvictionPolicy::Random => {
                // Deterministic pseudo-random pick: hash the current tick
                // into the LRU index space.
                let n = self.lru.len() as u64;
                if n == 0 {
                    None
                } else {
                    let skip = (cor_access::fnv1a64(&self.tick.to_le_bytes()) % n) as usize;
                    self.lru.keys().nth(skip).copied()
                }
            }
        };
        let Some(tick) = victim else { return Ok(()) };
        let hashkey = self.lru.remove(&tick).expect("victim tick must exist");
        let meta = self
            .entries
            .remove(&hashkey)
            .expect("victim must be tracked");
        self.file.delete(&hashkey.to_le_bytes())?;
        self.ilocks.unlock_unit(hashkey, &meta.members);
        self.counters.evictions += 1;
        Ok(())
    }

    /// An update hit subobject `oid`: delete every cached unit holding an
    /// I-lock for it. Returns how many units were invalidated.
    pub fn invalidate_subobject(&mut self, oid: Oid) -> Result<usize, AccessError> {
        let _phase = PhaseGuard::enter(Phase::CacheMaintain);
        let holders = self.ilocks.holders(oid);
        for &hashkey in &holders {
            let meta = self
                .entries
                .remove(&hashkey)
                .expect("I-locked unit must be cached");
            self.lru.remove(&meta.tick);
            self.file.delete(&hashkey.to_le_bytes())?;
            self.ilocks.unlock_unit(hashkey, &meta.members);
            self.counters.invalidations += 1;
        }
        Ok(holders.len())
    }

    /// Is the unit currently cached? In-memory check only (no I/O).
    #[cfg(test)]
    fn contains_meta(&self, hashkey: HashKey) -> bool {
        self.entries.contains_key(&hashkey)
    }

    /// Snapshot the cache for the engine catalog: hash-relation metadata
    /// plus the directory in LRU order (oldest first).
    pub fn save_state(&self) -> crate::persist::SavedUnitCache {
        crate::persist::SavedUnitCache {
            file: self.file.metadata(),
            capacity: self.capacity,
            policy: self.policy,
            entries: self
                .lru
                .values()
                .map(|hk| (*hk, self.entries[hk].members.clone()))
                .collect(),
        }
    }

    /// Reattach to a snapshotted cache, reconciling the directory against
    /// the recovered hash relation: entries whose record is gone (the
    /// snapshot outlived them) are dropped; I-locks are retaken for the
    /// survivors. Returns the cache and how many entries were dropped.
    /// Records the snapshot never saw stay invisible — probes consult the
    /// directory first, so they can only leak space, never answers.
    pub fn reattach(
        pool: Arc<BufferPool>,
        saved: &crate::persist::SavedUnitCache,
    ) -> Result<(Self, usize), AccessError> {
        assert!(saved.capacity > 0, "SizeCache must be positive");
        let file = HashFile::from_metadata(pool, saved.file);
        let mut cache = UnitCache {
            file,
            capacity: saved.capacity,
            policy: saved.policy,
            ilocks: ILockTable::new(),
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            counters: CacheCounters::default(),
        };
        let mut dropped = 0;
        for (hashkey, members) in &saved.entries {
            if cache.file.get(&hashkey.to_le_bytes())?.is_none() {
                dropped += 1;
                continue;
            }
            cache.tick += 1;
            cache.entries.insert(
                *hashkey,
                CachedMeta {
                    members: members.clone(),
                    tick: cache.tick,
                },
            );
            cache.lru.insert(cache.tick, *hashkey);
            cache.ilocks.lock_unit(*hashkey, members);
        }
        Ok((cache, dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    fn oid(k: u64) -> Oid {
        Oid::new(10, k)
    }

    fn recs(tag: u8) -> Vec<Vec<u8>> {
        vec![vec![tag; 40], vec![tag; 50]]
    }

    #[test]
    fn unit_value_codec_roundtrip() {
        let records = vec![b"abc".to_vec(), b"".to_vec(), vec![9u8; 100]];
        let enc = encode_unit_value(&records);
        assert_eq!(decode_unit_value(&enc).unwrap(), records);
        assert_eq!(
            decode_unit_value(&encode_unit_value(&[])).unwrap(),
            Vec::<Vec<u8>>::new()
        );
        assert_eq!(
            decode_unit_value(&enc[..enc.len() - 1]),
            None,
            "truncation detected"
        );
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut c = UnitCache::new(pool(16), 10).unwrap();
        assert_eq!(c.probe(42).unwrap(), None);
        c.insert(42, &[oid(1), oid(2)], &recs(7)).unwrap();
        assert_eq!(c.probe(42).unwrap().unwrap(), recs(7));
        let k = c.counters();
        assert_eq!((k.hits, k.misses, k.insertions), (1, 1, 1));
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let mut c = UnitCache::new(pool(32), 3).unwrap();
        for h in 1..=3u64 {
            c.insert(h, &[oid(h)], &recs(h as u8)).unwrap();
        }
        // Touch 1 so 2 becomes LRU.
        c.probe(1).unwrap().unwrap();
        c.insert(4, &[oid(4)], &recs(4)).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.contains_meta(1));
        assert!(!c.contains_meta(2), "unit 2 was LRU and must be evicted");
        assert!(c.contains_meta(3) && c.contains_meta(4));
        assert_eq!(c.counters().evictions, 1);
        // The evicted unit really left the disk relation.
        assert_eq!(c.probe(2).unwrap(), None);
    }

    #[test]
    fn invalidation_deletes_all_holding_units() {
        let mut c = UnitCache::new(pool(32), 10).unwrap();
        c.insert(100, &[oid(1), oid(2)], &recs(1)).unwrap();
        c.insert(200, &[oid(2), oid(3)], &recs(2)).unwrap();
        c.insert(300, &[oid(9)], &recs(3)).unwrap();
        let n = c.invalidate_subobject(oid(2)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(c.probe(100).unwrap(), None);
        assert_eq!(c.probe(200).unwrap(), None);
        assert!(c.probe(300).unwrap().is_some());
        assert_eq!(c.counters().invalidations, 2);
        // Updating an unlocked subobject is a no-op.
        assert_eq!(c.invalidate_subobject(oid(777)).unwrap(), 0);
    }

    #[test]
    fn eviction_releases_ilocks() {
        let mut c = UnitCache::new(pool(32), 1).unwrap();
        c.insert(100, &[oid(1)], &recs(1)).unwrap();
        c.insert(200, &[oid(2)], &recs(2)).unwrap(); // evicts 100
                                                     // oid(1)'s lock must be gone: invalidating it touches nothing.
        assert_eq!(c.invalidate_subobject(oid(1)).unwrap(), 0);
        assert_eq!(c.invalidate_subobject(oid(2)).unwrap(), 1);
    }

    #[test]
    fn probes_cost_io_when_cold() {
        let p = pool(8);
        let mut c = UnitCache::new(Arc::clone(&p), 10).unwrap();
        c.insert(42, &[oid(1)], &recs(1)).unwrap();
        p.flush_and_clear().unwrap();
        let before = p.stats().reads();
        c.probe(42).unwrap().unwrap();
        assert!(
            p.stats().reads() > before,
            "cold cache probe must read the hash relation"
        );
    }

    #[test]
    fn reinsert_existing_refreshes_value() {
        let mut c = UnitCache::new(pool(16), 4).unwrap();
        c.insert(1, &[oid(1)], &recs(1)).unwrap();
        c.insert(1, &[oid(1)], &recs(9)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.probe(1).unwrap().unwrap(), recs(9));
        assert_eq!(c.counters().insertions, 1, "refresh is not a new insertion");
    }

    #[test]
    fn random_policy_still_bounds_cache() {
        let mut c = UnitCache::with_policy(pool(32), 4, EvictionPolicy::Random).unwrap();
        for h in 0..20u64 {
            c.insert(h, &[oid(h)], &recs(h as u8)).unwrap();
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.counters().evictions, 16);
    }
}
