//! Static hash files.
//!
//! The paper's `Cache` relation "is maintained as a hash relation, hashed
//! on hashkey". [`HashFile`] is a static-hashing file: a fixed directory of
//! buckets, each bucket a chain of slotted pages. Keys are variable-length
//! byte strings; a probe reads the bucket chain until it finds the key.
//!
//! Records are stored as `[klen: u16][key][value]` in slotted pages, so the
//! existing page machinery handles deletion and space reuse (the cache
//! deletes units on invalidation and eviction).

use crate::AccessError;
use cor_pagestore::{BufferPool, PageId, PageView, SlotId, NO_PAGE};
use std::sync::Arc;

/// FNV-1a 64-bit — a deterministic hash so experiment runs are repeatable
/// across processes (std's `RandomState` is seeded per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Structural metadata of a hash file, sufficient to reattach to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashMeta {
    /// First primary-bucket page (buckets are contiguous).
    pub first_bucket: PageId,
    /// Number of primary buckets.
    pub num_buckets: u32,
    /// Stored record count.
    pub len: u64,
}

/// A static-hashing file of key → value records.
///
/// ```
/// use cor_access::HashFile;
/// use cor_pagestore::{BufferPool, IoStats, MemDisk};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let cache = HashFile::create(pool, 4).unwrap();
/// cache.put(b"hashkey", b"cached unit").unwrap();
/// assert_eq!(cache.get(b"hashkey").unwrap().unwrap(), b"cached unit");
/// assert!(cache.delete(b"hashkey").unwrap());
/// ```
pub struct HashFile {
    pool: Arc<BufferPool>,
    buckets: Vec<PageId>,
    len: crate::sync_cell::SyncCell<u64>,
}

fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(2 + key.len() + value.len());
    rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(value);
    rec
}

fn record_key(rec: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([rec[0], rec[1]]) as usize;
    &rec[2..2 + klen]
}

fn record_value(rec: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([rec[0], rec[1]]) as usize;
    &rec[2 + klen..]
}

/// The slot and record of `key` on one page.
fn record_of<'a>(p: PageView<'a>, key: &[u8]) -> Option<(SlotId, &'a [u8])> {
    p.records().find(|(_, rec)| record_key(rec) == key)
}

impl HashFile {
    /// Create a hash file with `num_buckets` primary buckets (one page
    /// each, allocated eagerly as a static hash file would be).
    pub fn create(pool: Arc<BufferPool>, num_buckets: usize) -> Result<Self, AccessError> {
        assert!(num_buckets > 0, "hash file needs at least one bucket");
        let mut buckets = Vec::with_capacity(num_buckets);
        for _ in 0..num_buckets {
            let pid = pool.allocate_page()?;
            pool.write(pid, |mut p| p.init())?;
            buckets.push(pid);
        }
        Ok(HashFile {
            pool,
            buckets,
            len: crate::sync_cell::SyncCell::new(0),
        })
    }

    /// The buffer pool this file lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Snapshot of the file's metadata for persisting in a catalog.
    /// Primary bucket pages are allocated contiguously at creation, so
    /// `(first bucket, count)` reconstructs the directory.
    pub fn metadata(&self) -> HashMeta {
        debug_assert!(
            self.buckets.windows(2).all(|w| w[1] == w[0] + 1),
            "bucket pages are contiguous"
        );
        HashMeta {
            first_bucket: self.buckets[0],
            num_buckets: self.buckets.len() as u32,
            len: self.len.get(),
        }
    }

    /// Reattach to a hash file previously persisted via
    /// [`Self::metadata`].
    pub fn from_metadata(pool: Arc<BufferPool>, meta: HashMeta) -> Self {
        HashFile {
            pool,
            buckets: (meta.first_bucket..meta.first_bucket + meta.num_buckets).collect(),
            len: crate::sync_cell::SyncCell::new(meta.len),
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> u64 {
        self.len.get()
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of primary buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, key: &[u8]) -> PageId {
        self.buckets[(fnv1a64(key) % self.buckets.len() as u64) as usize]
    }

    /// Walk the chain from `page` under read pins, calling `at` on each
    /// page in chain order until it answers. Returns the answer, or the
    /// chain's last page when no page answered.
    fn walk<R>(
        &self,
        mut page: PageId,
        mut at: impl FnMut(PageId, PageView<'_>) -> Option<R>,
    ) -> Result<Result<R, PageId>, AccessError> {
        loop {
            let (answer, next) = self.pool.read(page, |p| (at(page, p), p.next()))?;
            if let Some(r) = answer {
                return Ok(Ok(r));
            }
            if next == NO_PAGE {
                return Ok(Err(page));
            }
            page = next;
        }
    }

    /// Fetch the value stored under `key`, copied out under the pin that
    /// found it.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, AccessError> {
        let found = self.walk(self.bucket_of(key), |_, p| {
            record_of(p, key).map(|(_, rec)| record_value(rec).to_vec())
        })?;
        Ok(found.ok())
    }

    /// Insert or replace `key → value`. Returns `true` if the key was new.
    ///
    /// One walk of the bucket chain under read pins finds the key and the
    /// first page with room; then only the page that changes is
    /// write-pinned (a full chain also links a fresh page to its tail),
    /// and rewriting the value already stored pins nothing for writing.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<bool, AccessError> {
        let rec = encode_record(key, value);
        if rec.len() > cor_pagestore::MAX_RECORD {
            return Err(AccessError::EntryTooLarge);
        }
        let mut room = None;
        let walked = self.walk(self.bucket_of(key), |page, p| {
            let hit = record_of(p, key).map(|(slot, old)| (page, slot, old == rec));
            if hit.is_none() && room.is_none() && p.fits(rec.len()) {
                room = Some(page);
            }
            hit
        })?;
        let target = match walked {
            Err(tail) => room.ok_or(tail),
            // The same bytes again: nothing to write.
            Ok((_, _, true)) => return Ok(false),
            Ok((page, slot, false)) => {
                // Replace in place, or free the old copy under the same
                // pin and re-insert.
                let moved = self.pool.write(page, |mut p| {
                    if p.update(slot, &rec).is_ok() {
                        return None;
                    }
                    p.delete(slot).ok();
                    Some(p.view().next())
                })?;
                let Some(next) = moved else {
                    return Ok(false);
                };
                // The hit page has no room even with the old copy gone
                // (the update's test), so the record goes to the first
                // page with room before it, else after it.
                match room {
                    Some(room) => Ok(room),
                    None if next == NO_PAGE => Err(page),
                    None => self.walk(next, |page, p| p.fits(rec.len()).then_some(page))?,
                }
            }
        };
        self.place(&rec, target)?;
        if walked.is_err() {
            self.len.set(self.len.get() + 1);
        }
        Ok(walked.is_err())
    }

    /// Insert a record into the page with room (`Ok`), or else into a
    /// fresh page linked after the chain's tail (`Err`).
    fn place(&self, rec: &[u8], target: Result<PageId, PageId>) -> Result<(), AccessError> {
        let page = match target {
            Ok(room) => room,
            Err(tail) => {
                let fresh = self.pool.allocate_page()?;
                self.pool.write(fresh, |mut p| p.init())?;
                self.pool.write(tail, |mut p| p.set_next(fresh))?;
                fresh
            }
        };
        let placed = self.pool.write(page, |mut p| p.insert(rec).is_ok())?;
        assert!(placed, "the room test is the insert's own");
        Ok(())
    }

    /// Remove `key`. Returns whether it was present.
    pub fn delete(&self, key: &[u8]) -> Result<bool, AccessError> {
        let found = self.walk(self.bucket_of(key), |page, p| {
            record_of(p, key).map(|(slot, _)| (page, slot))
        })?;
        let Ok((page, slot)) = found else {
            return Ok(false);
        };
        self.pool.write(page, |mut p| p.delete(slot))?.ok();
        self.len.set(self.len.get() - 1);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashMap;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let h = HashFile::create(pool(8), 4).unwrap();
        assert!(h.put(b"k1", b"v1").unwrap());
        assert!(h.put(b"k2", b"v2").unwrap());
        assert_eq!(h.get(b"k1").unwrap().unwrap(), b"v1");
        assert_eq!(h.get(b"k2").unwrap().unwrap(), b"v2");
        assert_eq!(h.get(b"k3").unwrap(), None);
        assert_eq!(h.len(), 2);
        assert!(h.delete(b"k1").unwrap());
        assert_eq!(h.get(b"k1").unwrap(), None);
        assert!(!h.delete(b"k1").unwrap());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn put_replaces_existing() {
        let h = HashFile::create(pool(8), 2).unwrap();
        assert!(h.put(b"k", b"small").unwrap());
        assert!(!h.put(b"k", b"bigger value entirely").unwrap());
        assert_eq!(h.get(b"k").unwrap().unwrap(), b"bigger value entirely");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn chains_grow_under_load_and_model_agrees() {
        let h = HashFile::create(pool(16), 4).unwrap();
        let mut model = HashMap::new();
        for i in 0..500u32 {
            let k = format!("key-{i}");
            let v = vec![(i % 256) as u8; 40 + (i % 30) as usize];
            h.put(k.as_bytes(), &v).unwrap();
            model.insert(k, v);
        }
        assert_eq!(h.len(), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(h.get(k.as_bytes()).unwrap().unwrap(), *v, "key {k}");
        }
        // Delete half, verify the rest survives.
        for i in (0..500u32).step_by(2) {
            let k = format!("key-{i}");
            assert!(h.delete(k.as_bytes()).unwrap());
            model.remove(&k);
        }
        for (k, v) in &model {
            assert_eq!(h.get(k.as_bytes()).unwrap().unwrap(), *v);
        }
        assert_eq!(h.len(), model.len() as u64);
    }

    #[test]
    fn oversized_record_rejected() {
        let h = HashFile::create(pool(8), 2).unwrap();
        let huge = vec![0u8; cor_pagestore::MAX_RECORD];
        assert!(matches!(
            h.put(b"k", &huge),
            Err(AccessError::EntryTooLarge)
        ));
    }

    #[test]
    fn empty_key_works() {
        let h = HashFile::create(pool(8), 2).unwrap();
        h.put(b"", b"nothing").unwrap();
        assert_eq!(h.get(b"").unwrap().unwrap(), b"nothing");
    }

    #[test]
    fn a_probe_pins_each_page_once_and_an_append_writes_one_page() {
        let p = Arc::new(BufferPool::builder().capacity(8).telemetry(true).build());
        let h = HashFile::create(Arc::clone(&p), 1).unwrap();
        // 18 records of 106 bytes (110 with a slot) fill a page: a chain
        // of three.
        for i in 0..40u32 {
            h.put(&i.to_le_bytes(), &[0u8; 100]).unwrap();
        }
        assert_eq!(p.num_pages(), 3);
        let pins = || {
            let shards = p.telemetry().unwrap();
            shards.iter().map(|s| s.hits + s.misses).sum::<u64>()
        };
        let before = pins();
        h.get(&39u32.to_le_bytes()).unwrap().unwrap();
        assert_eq!(
            pins() - before,
            3,
            "one pin per chain page, the tail's included"
        );

        p.flush_all().unwrap();
        let writes = p.stats().writes();
        assert!(h.put(&40u32.to_le_bytes(), &[0u8; 100]).unwrap());
        assert!(!h.put(&40u32.to_le_bytes(), &[0u8; 100]).unwrap());
        p.flush_all().unwrap();
        assert_eq!(
            p.stats().writes() - writes,
            1,
            "only the tail took a record"
        );
    }

    #[test]
    fn resident_probe_is_free_cold_probe_reads_chain() {
        let p = pool(4);
        let h = HashFile::create(Arc::clone(&p), 1).unwrap();
        h.put(b"k", b"v").unwrap();
        p.flush_and_clear().unwrap();
        let before = p.stats().reads();
        h.get(b"k").unwrap().unwrap();
        assert_eq!(
            p.stats().reads() - before,
            1,
            "single-page bucket: one read"
        );
        let before = p.stats().reads();
        h.get(b"k").unwrap().unwrap();
        assert_eq!(p.stats().reads() - before, 0, "now resident: free");
    }
}
