//! Property tests for the access methods: B-tree and hash file against
//! std collection models, the one-walk hash file against the two-walk
//! one it replaced, external sort against `sort()`, the in-place
//! merge co-scan against the iterator merge join, the in-place visits and
//! lookups against their copy-out forms, the one-descent update against
//! the lookup-then-upsert it replaced, batch heap appends against one
//! append per record, the streaming bulk loader against the `Vec`-based
//! load it replaced, record codec round-trips.

use cor_access::{
    decode, encode, external_sort, fnv1a64, merge_join, AccessError, BTreeFile, BTreeMeta,
    BulkLoader, HashFile, HeapFile, MAX_BTREE_ENTRY,
};
use cor_pagestore::{
    BufferPool, DiskError, DiskManager, MemDisk, PageBuf, PageId, ReplacementPolicy, SlotId,
    MAX_RECORD, NO_PAGE, PAGE_SIZE,
};
use cor_relational::{Oid, Schema, Tuple, Value, ValueType};
use cor_wal::{MemLogStore, Wal, WalConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::builder().capacity(frames).build())
}

fn key8(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

/// A tree over `present` — bulk-loaded, or built by inserts and then split
/// and merged by `churn`'s `(key, value length, delete?)` steps — with the
/// model it must agree with.
fn churned_tree(
    p: &Arc<BufferPool>,
    present: &std::collections::BTreeSet<u64>,
    churn: &[(u64, usize, bool)],
    bulk: bool,
) -> (BTreeFile, BTreeMap<u64, Vec<u8>>) {
    let rec = |k: u64, len: usize| vec![k as u8; len];
    if bulk {
        let model: BTreeMap<u64, Vec<u8>> = present
            .iter()
            .map(|&k| (k, rec(k, 40 + (k % 90) as usize)))
            .collect();
        let entries = model.iter().map(|(&k, v)| (key8(k), v.clone()));
        let tree = BTreeFile::bulk_load(Arc::clone(p), 8, entries, 0.9).unwrap();
        return (tree, model);
    }
    let tree = BTreeFile::create(Arc::clone(p), 8).unwrap();
    let mut model = BTreeMap::new();
    for &k in present {
        tree.insert(&key8(k), &rec(k, 100)).unwrap();
        model.insert(k, rec(k, 100));
    }
    for &(k, len, delete) in churn {
        if delete {
            tree.delete(&key8(k)).unwrap();
            model.remove(&k);
        } else {
            tree.insert(&key8(k), &rec(k, len)).unwrap();
            model.insert(k, rec(k, len));
        }
    }
    (tree, model)
}

/// Pool-wide `(hits, misses)` of a telemetry-enabled pool: every pin is
/// one or the other.
fn pin_counts(p: &BufferPool) -> (u64, u64) {
    let shards = p.telemetry().expect("telemetry-enabled pool");
    (
        shards.iter().map(|s| s.hits).sum(),
        shards.iter().map(|s| s.misses).sum(),
    )
}

/// What `run` costs from a cold pool: transfers, and pins as `(hits,
/// misses)`.
fn cold_cost(p: &BufferPool, run: impl FnOnce()) -> (cor_pagestore::IoDelta, (u64, u64)) {
    p.flush_and_clear().unwrap();
    let (io0, pins0) = (p.stats().snapshot(), pin_counts(p));
    run();
    let pins = pin_counts(p);
    (
        p.stats().snapshot().since(&io0),
        (pins.0 - pins0.0, pins.1 - pins0.1),
    )
}

/// One side of the update comparison: a tree on an LRU pool of `frames`
/// frames over its own `MemDisk`, logging to a `Wal` over a
/// `MemLogStore`, built by the same steps as [`churned_tree`].
struct Logged {
    disk: Arc<MemDisk>,
    wal: Arc<Wal>,
    pool: Arc<BufferPool>,
    tree: BTreeFile,
}

impl Logged {
    fn build(
        frames: usize,
        present: &std::collections::BTreeSet<u64>,
        churn: &[(u64, usize, bool)],
        bulk: bool,
    ) -> (Self, BTreeMap<u64, Vec<u8>>) {
        let disk = Arc::new(MemDisk::new());
        let wal = Arc::new(Wal::new(Arc::new(MemLogStore::new()), WalConfig::default()));
        let pool = Arc::new(
            BufferPool::builder()
                .capacity(frames)
                .disk(Box::new(Arc::clone(&disk)))
                .build(),
        );
        pool.attach_wal(wal.clone()).unwrap();
        let (tree, model) = churned_tree(&pool, present, churn, bulk);
        (
            Logged {
                disk,
                wal,
                pool,
                tree,
            },
            model,
        )
    }

    /// Everything an update may move: transfers, log counters, tree shape.
    fn counts(&self) -> ((u64, u64), cor_wal::WalStatsSnapshot, (u64, u32)) {
        let io = self.pool.stats();
        (
            (io.reads(), io.writes()),
            self.wal.stats(),
            (self.tree.len(), self.tree.height()),
        )
    }

    /// Every page as the disk holds it after a flush.
    fn pages(&self) -> Vec<Vec<u8>> {
        self.pool.flush_all().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        (0..self.disk.num_pages())
            .map(|pid| {
                self.disk.read_page(pid, &mut buf).unwrap();
                buf.to_vec()
            })
            .collect()
    }
}

/// A `MemDisk` that counts write-backs of bytes equal to the page it
/// already stores (a page's first write does not count): each one is a
/// page dirtied by a write pin that changed nothing.
#[derive(Default)]
struct RewriteCounter {
    inner: MemDisk,
    written: std::sync::Mutex<std::collections::HashSet<PageId>>,
    unchanged: std::sync::atomic::AtomicU64,
}

impl RewriteCounter {
    fn unchanged(&self) -> u64 {
        self.unchanged.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl DiskManager for RewriteCounter {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        if !self.written.lock().unwrap().insert(id) {
            let mut stored = [0u8; PAGE_SIZE];
            self.inner.read_page(id, &mut stored)?;
            if stored[..] == buf[..] {
                self.unchanged
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId, DiskError> {
        self.inner.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
}

/// The two-walk hash file the one-walk `HashFile` replaced, kept as its
/// model: `find` walks the chain under read pins, `get` pins the hit page
/// a second time, and a new record goes to the first chain page that
/// takes it under a *write* pin, from the bucket head.
struct TwoWalkHash {
    pool: Arc<BufferPool>,
    buckets: Vec<PageId>,
}

impl TwoWalkHash {
    fn create(pool: Arc<BufferPool>, num_buckets: usize) -> Self {
        let buckets = (0..num_buckets)
            .map(|_| {
                let pid = pool.allocate_page().unwrap();
                pool.write(pid, |mut p| p.init()).unwrap();
                pid
            })
            .collect();
        TwoWalkHash { pool, buckets }
    }

    fn bucket_of(&self, key: &[u8]) -> PageId {
        self.buckets[(fnv1a64(key) % self.buckets.len() as u64) as usize]
    }

    fn find(&self, key: &[u8]) -> Option<(PageId, SlotId)> {
        let mut page = self.bucket_of(key);
        loop {
            let (hit, next) = self
                .pool
                .read(page, |p| {
                    let hit = p
                        .records()
                        .find(|(_, rec)| hash_key(rec) == key)
                        .map(|(slot, _)| slot);
                    (hit, p.next())
                })
                .unwrap();
            if let Some(slot) = hit {
                return Some((page, slot));
            }
            if next == NO_PAGE {
                return None;
            }
            page = next;
        }
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (page, slot) = self.find(key)?;
        self.pool
            .read(page, |p| {
                p.record(slot).map(|rec| rec[2 + key.len()..].to_vec())
            })
            .unwrap()
    }

    fn put(&self, key: &[u8], value: &[u8]) -> bool {
        let rec = hash_record(key, value);
        if let Some((page, slot)) = self.find(key) {
            let in_place = self
                .pool
                .write(page, |mut p| p.update(slot, &rec).is_ok())
                .unwrap();
            if !in_place {
                self.pool
                    .write(page, |mut p| p.delete(slot))
                    .unwrap()
                    .unwrap();
                self.insert_new(&rec);
            }
            return false;
        }
        self.insert_new(&rec);
        true
    }

    fn insert_new(&self, rec: &[u8]) {
        let mut page = self.bucket_of(hash_key(rec));
        loop {
            let (inserted, next) = self
                .pool
                .write(page, |mut p| (p.insert(rec).is_ok(), p.view().next()))
                .unwrap();
            if inserted {
                return;
            }
            if next != NO_PAGE {
                page = next;
                continue;
            }
            let fresh = self.pool.allocate_page().unwrap();
            self.pool.write(fresh, |mut p| p.init()).unwrap();
            self.pool.write(page, |mut p| p.set_next(fresh)).unwrap();
            page = fresh;
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        let Some((page, slot)) = self.find(key) else {
            return false;
        };
        self.pool
            .write(page, |mut p| p.delete(slot))
            .unwrap()
            .unwrap();
        true
    }
}

/// `HashFile`'s record layout: `[klen: u16][key][value]`.
fn hash_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    [&(key.len() as u16).to_le_bytes()[..], key, value].concat()
}

fn hash_key(rec: &[u8]) -> &[u8] {
    &rec[2..2 + u16::from_le_bytes([rec[0], rec[1]]) as usize]
}

/// One side of the hash comparison: an LRU pool of `frames` frames over
/// its own rewrite-counting disk, logging to a `Wal` over a
/// `MemLogStore` when `logged`.
struct HashSide {
    disk: Arc<RewriteCounter>,
    wal: Option<Arc<Wal>>,
    pool: Arc<BufferPool>,
}

impl HashSide {
    fn new(frames: usize, logged: bool) -> Self {
        let disk = Arc::new(RewriteCounter::default());
        let wal =
            logged.then(|| Arc::new(Wal::new(Arc::new(MemLogStore::new()), WalConfig::default())));
        let pool = BufferPool::builder()
            .capacity(frames)
            .telemetry(true)
            .disk(Box::new(Arc::clone(&disk)))
            .build();
        if let Some(wal) = &wal {
            pool.attach_wal(wal.clone()).unwrap();
        }
        HashSide {
            disk,
            wal,
            pool: Arc::new(pool),
        }
    }

    /// `(pins, writes)` so far.
    fn io(&self) -> (u64, u64) {
        let (hits, misses) = pin_counts(&self.pool);
        (hits + misses, self.pool.stats().writes())
    }

    fn log(&self) -> Option<cor_wal::WalStatsSnapshot> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Every page as the disk holds it after a flush.
    fn pages(&self) -> Vec<Vec<u8>> {
        self.pool.flush_all().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        (0..self.disk.num_pages())
            .map(|pid| {
                self.disk.read_page(pid, &mut buf).unwrap();
                buf.to_vec()
            })
            .collect()
    }
}

fn copy_out(v: &[u8]) -> Result<Vec<u8>, AccessError> {
    Ok(v.to_vec())
}

/// The leaf a root-to-leaf descent finds for `key`, read off the node
/// bytes with one pin per level (the cost of the descent `BTreeFile`'s
/// own lookups make): in an internal node, the child right of the last
/// separator at or below `key`, else the leftmost child.
fn leaf_of(tree: &BTreeFile, key: &[u8]) -> PageId {
    let key_len = tree.key_len();
    let mut page = tree.metadata().root;
    loop {
        let child = tree
            .pool()
            .read(page, |p| {
                let d = p.bytes();
                if d[4] & 1 == 1 {
                    return None;
                }
                let word = |at: usize| u16::from_le_bytes([d[at], d[at + 1]]) as usize;
                let mut child = u32::from_le_bytes(d[8..12].try_into().unwrap());
                for i in 0..word(0) {
                    let off = word(16 + 4 * i);
                    if &d[off..off + key_len] > key {
                        break;
                    }
                    child =
                        u32::from_le_bytes(d[off + key_len..off + key_len + 4].try_into().unwrap());
                }
                Some(child)
            })
            .unwrap();
        match child {
            Some(child) => page = child,
            None => return page,
        }
    }
}

/// Lay a whole node out from a materialised entry list: the old
/// `write_node`, kept with the bulk-load model.
fn model_write_node(d: &mut [u8], leaf: bool, next: PageId, entries: &[(Vec<u8>, Vec<u8>)]) {
    d[..16].fill(0);
    d[4] = leaf as u8;
    d[8..12].copy_from_slice(&next.to_le_bytes());
    let mut free_end = PAGE_SIZE;
    for (i, (k, v)) in entries.iter().enumerate() {
        free_end -= k.len() + v.len();
        d[free_end..free_end + k.len()].copy_from_slice(k);
        d[free_end + k.len()..free_end + k.len() + v.len()].copy_from_slice(v);
        let at = 16 + 4 * i;
        d[at..at + 2].copy_from_slice(&(free_end as u16).to_le_bytes());
        d[at + 2..at + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
    }
    d[0..2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    d[2..4].copy_from_slice(&(free_end as u16).to_le_bytes());
}

/// The `Vec`-based bulk load the streaming `BulkLoader` replaced, kept as
/// its model: each leaf's entries are materialised, the leaf is allocated
/// and written when the next entry would pass the fill, and the previous
/// leaf is then linked to it; the internal levels are built from
/// `(first key, page)` pairs. Returns the tree's metadata; an empty input
/// is `BTreeFile::create`'s tree, as it was.
fn model_bulk_load(
    pool: &Arc<BufferPool>,
    key_len: usize,
    entries: &[(Vec<u8>, Vec<u8>)],
    fill: f64,
) -> Result<BTreeMeta, AccessError> {
    if key_len == 0 || key_len > 64 {
        return Err(AccessError::BadKeyLen(key_len));
    }
    let limit = ((PAGE_SIZE - 16) as f64 * fill.clamp(0.3, 1.0)) as usize;
    let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new();
    let mut current: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut current_bytes = 0usize;
    let flush = |current: &mut Vec<(Vec<u8>, Vec<u8>)>,
                 leaves: &mut Vec<(Vec<u8>, PageId)>|
     -> Result<(), AccessError> {
        if current.is_empty() {
            return Ok(());
        }
        let pid = pool.allocate_page()?;
        pool.write(pid, |mut p| {
            model_write_node(p.bytes_mut(), true, NO_PAGE, current)
        })?;
        if let Some(&(_, prev)) = leaves.last() {
            pool.write(prev, |mut p| {
                p.bytes_mut()[8..12].copy_from_slice(&pid.to_le_bytes())
            })?;
        }
        leaves.push((current[0].0.clone(), pid));
        current.clear();
        Ok(())
    };
    for (i, (k, v)) in entries.iter().enumerate() {
        if k.len() != key_len {
            return Err(AccessError::BadKeyLen(k.len()));
        }
        if key_len + v.len() > MAX_BTREE_ENTRY {
            return Err(AccessError::EntryTooLarge);
        }
        if i > 0 && k <= &entries[i - 1].0 {
            return Err(AccessError::UnsortedBulkLoad);
        }
        let size = 4 + key_len + v.len();
        if current_bytes + size > limit && !current.is_empty() {
            flush(&mut current, &mut leaves)?;
            current_bytes = 0;
        }
        current_bytes += size;
        current.push((k.clone(), v.clone()));
    }
    flush(&mut current, &mut leaves)?;
    if leaves.is_empty() {
        return Ok(BTreeFile::create(Arc::clone(pool), key_len)?.metadata());
    }
    let (first_leaf, leaf_pages) = (leaves[0].1, leaves.len() as u32);
    let per_node = (limit / (4 + key_len + 4)).max(2) + 1;
    let mut level = leaves;
    let mut height = 1;
    while level.len() > 1 {
        height += 1;
        let mut upper = Vec::new();
        for group in level.chunks(per_node) {
            let pid = pool.allocate_page()?;
            let entries: Vec<(Vec<u8>, Vec<u8>)> = group[1..]
                .iter()
                .map(|(k, c)| (k.clone(), c.to_le_bytes().to_vec()))
                .collect();
            pool.write(pid, |mut p| {
                model_write_node(p.bytes_mut(), false, group[0].1, &entries)
            })?;
            upper.push((group[0].0.clone(), pid));
        }
        level = upper;
    }
    Ok(BTreeMeta {
        key_len: key_len as u16,
        root: level[0].1,
        first_leaf,
        len: entries.len() as u64,
        height,
        leaf_pages,
    })
}

/// Every page of `pool`'s store, read through the pool.
fn store_pages(pool: &BufferPool) -> Vec<Vec<u8>> {
    (0..pool.num_pages())
        .map(|pid| pool.read(pid, |p| p.bytes().to_vec()).unwrap())
        .collect()
}

/// Sorted bulk-load input of `key_len`-byte keys: one entry per seed,
/// keys spread from the seed's bytes (seeds that collide in a short key
/// give one entry), and values from empty to the largest an entry may
/// hold — mostly under 48 bytes, one seed in four the size its second
/// half picks.
fn load_input(key_len: usize, seeds: &[(u64, u8, usize)]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let largest = MAX_BTREE_ENTRY - key_len;
    let entries: BTreeMap<Vec<u8>, Vec<u8>> = seeds
        .iter()
        .map(|&(seed, big, len)| {
            let mut x = seed;
            let mut key = Vec::with_capacity(key_len + 8);
            while key.len() < key_len {
                key.extend_from_slice(&x.to_be_bytes());
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            }
            key.truncate(key_len);
            let len = if big == 0 {
                len % (largest + 1)
            } else {
                len % 48
            };
            (key, vec![seed as u8; len])
        })
        .collect();
    entries.into_iter().collect()
}

/// A key length: the trees' 8, 10 and 19 bytes drawn often, else 1-24.
fn arb_key_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(10), Just(19), 1usize..25]
}

fn arb_load_seeds() -> impl Strategy<Value = Vec<(u64, u8, usize)>> {
    proptest::collection::vec((any::<u64>(), 0u8..4, 0usize..MAX_BTREE_ENTRY), 0..400)
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, Vec<u8>),
    Delete(u64),
    Get(u64),
    Range(u64, u64),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    let key = 0u64..200;
    prop_oneof![
        4 => (key.clone(), proptest::collection::vec(any::<u8>(), 0..150))
            .prop_map(|(k, v)| TreeOp::Insert(k, v)),
        1 => key.clone().prop_map(TreeOp::Delete),
        2 => key.clone().prop_map(TreeOp::Get),
        1 => (key.clone(), key).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The B-tree behaves exactly like `BTreeMap` under arbitrary
    /// interleavings of insert/delete/get/range.
    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(arb_tree_op(), 1..120)) {
        let tree = BTreeFile::create(pool(32), 8).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let fresh = tree.insert(&key8(k), &v).unwrap();
                    prop_assert_eq!(fresh, !model.contains_key(&k));
                    model.insert(k, v);
                }
                TreeOp::Delete(k) => {
                    let removed = tree.delete(&key8(k)).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&key8(k)).unwrap(), model.get(&k).cloned());
                }
                TreeOp::Range(lo, hi) => {
                    let got: Vec<(u64, Vec<u8>)> = tree
                        .range(&key8(lo), &key8(hi))
                        .unwrap()
                        .map(|(k, v)| (u64::from_be_bytes(k.try_into().unwrap()), v))
                        .collect();
                    let expect: Vec<(u64, Vec<u8>)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
        }
        // Final full scan agrees and the structure is internally sound.
        let scanned: Vec<u64> = tree
            .scan_all()
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(scanned, expect);
        prop_assert!(tree.validate().is_ok(), "invariant violation: {:?}", tree.validate());
    }

    /// Bulk load over any sorted input equals the same data inserted
    /// one-by-one.
    #[test]
    fn bulk_load_equals_incremental(
        keys in proptest::collection::btree_set(0u64..100_000, 0..300),
        fill in 0.4f64..1.0,
    ) {
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            keys.iter().map(|&k| (key8(k), k.to_le_bytes().to_vec())).collect();
        let bulk = BTreeFile::bulk_load(pool(64), 8, entries.clone(), fill).unwrap();
        let incr = BTreeFile::create(pool(64), 8).unwrap();
        for (k, v) in &entries {
            incr.insert(k, v).unwrap();
        }
        prop_assert_eq!(bulk.len(), incr.len());
        let a: Vec<_> = bulk.scan_all().collect();
        let b: Vec<_> = incr.scan_all().collect();
        prop_assert_eq!(a, b);
        prop_assert!(bulk.validate().is_ok());
        prop_assert!(incr.validate().is_ok());
    }

    /// The streaming loader lays out exactly the pages the `Vec`-based
    /// load it replaced did — the same ids holding the same bytes, the
    /// same metadata — over any sorted input, key length and fill, through
    /// pools small enough to evict mid-load; and every leaf `push`
    /// reports is the leaf a descent finds for that key.
    #[test]
    fn bulk_loader_equals_the_vec_model(
        key_len in arb_key_len(),
        seeds in arb_load_seeds(),
        fill in 0.2f64..1.1,
        frames in 2usize..17,
    ) {
        let entries = load_input(key_len, &seeds);
        let model = pool(frames);
        let want = model_bulk_load(&model, key_len, &entries, fill).unwrap();
        let p = pool(frames);
        let mut loader = BulkLoader::new(Arc::clone(&p), key_len, fill).unwrap();
        let leaves: Vec<PageId> =
            entries.iter().map(|(k, v)| loader.push(k, v).unwrap()).collect();
        let tree = loader.finish().unwrap();
        prop_assert_eq!(tree.metadata(), want);
        prop_assert_eq!(store_pages(&p), store_pages(&model));
        for ((k, _), &leaf) in entries.iter().zip(&leaves) {
            prop_assert_eq!(leaf, leaf_of(&tree, k));
        }
        prop_assert!(tree.validate().is_ok());
    }

    /// Unsorted, duplicate, oversized and wrong-length entries fail the
    /// load with the error the model gives.
    #[test]
    fn bulk_loader_refuses_what_the_model_refuses(
        key_len in arb_key_len(),
        seeds in arb_load_seeds(),
        at in any::<usize>(),
        fault in 0u8..4,
    ) {
        let mut entries = load_input(key_len, &seeds);
        if entries.len() < 2 {
            return;
        }
        let i = at % (entries.len() - 1) + 1;
        match fault {
            0 => entries.swap(i - 1, i),
            1 => entries[i].0 = entries[i - 1].0.clone(),
            2 => entries[i].1 = vec![0; MAX_BTREE_ENTRY - key_len + 1],
            _ => entries[i].0.push(0),
        }
        let want = model_bulk_load(&pool(8), key_len, &entries, 0.9).unwrap_err();
        let got = BTreeFile::bulk_load(pool(8), key_len, entries, 0.9).err().expect("refused");
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// The hash file behaves like `HashMap` under put/get/delete.
    #[test]
    fn hash_file_matches_hashmap(
        ops in proptest::collection::vec(
            (0u64..100, proptest::option::of(proptest::collection::vec(any::<u8>(), 0..120))),
            1..100,
        )
    ) {
        let h = HashFile::create(pool(32), 4).unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (k, v) in ops {
            match v {
                Some(v) => {
                    let fresh = h.put(&key8(k), &v).unwrap();
                    prop_assert_eq!(fresh, !model.contains_key(&k));
                    model.insert(k, v);
                }
                None => {
                    let removed = h.delete(&key8(k)).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(h.get(&key8(*k)).unwrap(), Some(v.clone()));
        }
        prop_assert_eq!(h.len(), model.len() as u64);
    }

    /// `HashFile`'s one walk is the two-walk file it replaced: through a
    /// 2-8-frame LRU pool, with and without a log, on one to four
    /// buckets whose chains grow, with values kept, rewritten unchanged,
    /// shrunk, grown in place and grown past their page, and every frame
    /// made clean now and then, it answers every put, get and delete the
    /// same, leaves the same bytes on every page and logs the same
    /// records, and never pins or writes more than the model.
    /// It never writes back a page whose bytes did not change.
    #[test]
    fn one_walk_hash_equals_the_two_walk_model(
        frames in 2usize..=8,
        logged in any::<bool>(),
        buckets in 1usize..=4,
        ops in proptest::collection::vec(
            (0u64..40, 0u8..7, prop_oneof![3 => 0usize..80, 1 => 80usize..1000], any::<u8>()),
            1..160,
        ),
    ) {
        let (model, new) = (HashSide::new(frames, logged), HashSide::new(frames, logged));
        let m = TwoWalkHash::create(Arc::clone(&model.pool), buckets);
        let h = HashFile::create(Arc::clone(&new.pool), buckets).unwrap();
        let mut stored: HashMap<u64, Vec<u8>> = HashMap::new();
        for (k, op, len, fill) in ops {
            let key = key8(k);
            match op {
                0..=2 => {
                    let value = vec![fill; len];
                    prop_assert_eq!(h.put(&key, &value).unwrap(), m.put(&key, &value));
                    stored.insert(k, value);
                }
                3 => {
                    // Rewrite what is stored, unchanged.
                    let value = stored.get(&k).cloned().unwrap_or_default();
                    prop_assert_eq!(h.put(&key, &value).unwrap(), m.put(&key, &value));
                    stored.insert(k, value);
                }
                4 => prop_assert_eq!(h.get(&key).unwrap(), m.get(&key)),
                5 => {
                    // Every frame clean: a write pin that changes nothing
                    // now shows as a write-back of unchanged bytes.
                    new.pool.flush_all().unwrap();
                    model.pool.flush_all().unwrap();
                }
                _ => {
                    prop_assert_eq!(h.delete(&key).unwrap(), m.delete(&key));
                    stored.remove(&k);
                }
            }
            prop_assert_eq!(h.len(), stored.len() as u64);
            // Each operation pins a subsequence of the model's pages, so
            // reads may differ either way (LRU recency differs), but pins
            // and writes never exceed the model's.
            let (got, want) = (new.io(), model.io());
            prop_assert!(got.0 <= want.0, "pins {} > the model's {}", got.0, want.0);
            prop_assert!(got.1 <= want.1, "writes {} > the model's {}", got.1, want.1);
            prop_assert_eq!(new.log(), model.log());
            prop_assert_eq!(new.disk.unchanged(), 0, "an unchanged page was written back");
        }
        prop_assert!(new.pages() == model.pages(), "page bytes differ");
        prop_assert_eq!(new.log(), model.log());
        prop_assert_eq!(new.disk.unchanged(), 0, "an unchanged page was written back");
    }

    /// The in-place co-scan is the iterator merge join: same `(key, rec)`
    /// sequence and the same page transfers, on bulk-loaded
    /// chains and on chains reshaped by splits and merges, for key lists
    /// with duplicates, misses and keys past the last entry, handed over
    /// in memory or as a spilled sort whose runs are read back through the
    /// same two-to-six-frame pool while a leaf is pinned (one frame would
    /// not do: the co-scan holds the leaf while it pulls a key).
    #[test]
    fn merge_scan_equals_merge_join_over_scan_all(
        present in proptest::collection::btree_set(0u64..400, 0..300),
        churn in proptest::collection::vec((0u64..400, 0usize..120, any::<bool>()), 0..200),
        bulk in any::<bool>(),
        probes in proptest::collection::vec(0u64..440, 0..1200),
        // Sort memory for the probe keys: one-page runs, multi-page runs
        // (read back a page at a time during the co-scan), or no spill.
        work_mem in prop_oneof![Just(600usize), Just(10_000usize), Just(usize::MAX)],
        frames in 2usize..7,
    ) {
        let p = pool(frames);
        let (tree, _) = churned_tree(&p, &present, &churn, bulk);
        let keys: Vec<Vec<u8>> = probes.iter().map(|&k| key8(k)).collect();
        let sorted = || external_sort(&p, keys.iter().cloned(), work_mem, false).unwrap();

        p.flush_and_clear().unwrap();
        let io0 = p.stats().snapshot();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            merge_join(sorted(), tree.scan_all()).collect();
        let want_io = p.stats().snapshot().since(&io0);

        p.flush_and_clear().unwrap();
        let io0 = p.stats().snapshot();
        let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        tree.merge_scan(sorted(), |k, v| {
            got.push((k.to_vec(), v.to_vec()));
            Ok::<(), cor_access::AccessError>(())
        })
        .unwrap();
        prop_assert_eq!(got, want);
        prop_assert_eq!(p.stats().snapshot().since(&io0), want_io);
    }

    /// `visit_range` is `range(..).collect()` without the copies: the same
    /// entries in the same order, and from a cold pool the same transfers
    /// and pins.
    #[test]
    fn visit_range_equals_range_collect(
        present in proptest::collection::btree_set(0u64..400, 0..300),
        churn in proptest::collection::vec((0u64..400, 0usize..120, any::<bool>()), 0..200),
        bulk in any::<bool>(),
        bounds in (0u64..440, 0u64..440),
        frames in 2usize..7,
    ) {
        let p = Arc::new(BufferPool::builder().capacity(frames).telemetry(true).build());
        let (tree, _) = churned_tree(&p, &present, &churn, bulk);
        let (lo, hi) = (key8(bounds.0.min(bounds.1)), key8(bounds.0.max(bounds.1)));
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let want_cost = cold_cost(&p, || {
            want.extend(tree.range(&lo, &hi).unwrap());
        });
        let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let got_cost = cold_cost(&p, || {
            tree.visit_range(&lo, &hi, |k, v| {
                got.push((k.to_vec(), v.to_vec()));
                Ok::<(), AccessError>(())
            })
            .unwrap();
        });
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_cost, want_cost);

        // A visitor's error ends the walk at the entry that raised it.
        let mut seen = 0usize;
        let stopped = tree.visit_range(&lo, &hi, |_, _| {
            seen += 1;
            if seen == 3 { Err(AccessError::EntryTooLarge) } else { Ok(()) }
        });
        prop_assert_eq!(stopped.is_err(), want.len() >= 3);
        prop_assert_eq!(seen, want.len().min(3));
    }

    /// `visit_leaf` over every leaf, in chain order, concatenates to
    /// `scan_all()`; a page that is not a leaf visits nothing.
    #[test]
    fn visit_leaf_over_the_chain_equals_scan_all(
        present in proptest::collection::btree_set(0u64..400, 0..300),
        churn in proptest::collection::vec((0u64..400, 0usize..120, any::<bool>()), 0..200),
        bulk in any::<bool>(),
    ) {
        let p = pool(16);
        let (tree, _) = churned_tree(&p, &present, &churn, bulk);
        let want: Vec<(Vec<u8>, Vec<u8>)> = tree.scan_all().collect();
        let mut leaves: Vec<PageId> =
            want.iter().map(|(k, _)| leaf_of(&tree, k)).collect();
        leaves.dedup();
        let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for &leaf in &leaves {
            tree.visit_leaf(leaf, |k, v| {
                got.push((k.to_vec(), v.to_vec()));
                Ok::<(), AccessError>(())
            })
            .unwrap();
        }
        prop_assert_eq!(got, want);
        if tree.height() > 1 {
            let mut visited = 0usize;
            tree.visit_leaf(tree.metadata().root, |_, _| {
                visited += 1;
                Ok::<(), AccessError>(())
            })
            .unwrap();
            prop_assert_eq!(visited, 0);
        }
    }

    /// The in-place point lookups agree with the model for present and
    /// missing keys alike — through a descent, through the right leaf
    /// hint, through a stale hint and through a hint that is no leaf. A
    /// descent pins each level once, the leaf included: `height()` misses
    /// from a cold pool, `height()` hits right after.
    #[test]
    fn in_place_lookups_equal_the_model(
        present in proptest::collection::btree_set(0u64..400, 0..300),
        churn in proptest::collection::vec((0u64..400, 0usize..120, any::<bool>()), 0..200),
        bulk in any::<bool>(),
        probes in proptest::collection::vec(0u64..440, 1..60),
    ) {
        let p = Arc::new(BufferPool::builder().capacity(16).telemetry(true).build());
        let (tree, model) = churned_tree(&p, &present, &churn, bulk);
        let meta = tree.metadata();
        let height = u64::from(tree.height());
        for k in probes {
            let key = key8(k);
            let want = model.get(&k).cloned();
            prop_assert_eq!(tree.get(&key).unwrap(), want.clone());
            let mut got = None;
            let (_, cold) = cold_cost(&p, || got = tree.get_with(&key, copy_out).unwrap());
            prop_assert_eq!(got, want.clone());
            prop_assert_eq!(cold, (0, height), "cold (hits, misses) of one descent");
            let pins0 = pin_counts(&p);
            prop_assert_eq!(tree.get_with(&key, copy_out).unwrap(), want.clone());
            let pins = pin_counts(&p);
            prop_assert_eq!((pins.0 - pins0.0, pins.1 - pins0.1), (height, 0), "warm (hits, misses)");
            for hint in [leaf_of(&tree, &key), meta.first_leaf, meta.root] {
                prop_assert_eq!(tree.get_with_hint(hint, &key, copy_out).unwrap(), want.clone());
            }
        }
        let refused: Result<Option<()>, AccessError> =
            tree.get_with(&key8(0), |_| Err(AccessError::EntryTooLarge));
        prop_assert_eq!(refused.is_err(), model.contains_key(&0));
    }

    /// `update_with` is the lookup-then-upsert sequence it replaced — a
    /// `get`, a key check (the old `contains`, a `get_with` that copies
    /// nothing) and an `insert` — with two descents fewer, and so are
    /// `update` and `update_with_hint` (whose model looks up through the
    /// same hint). On bulk-loaded and split trees, present and absent
    /// keys, and values kept, shrunk, grown and grown past what the leaf
    /// can hold, it leaves the same bytes on every page, costs the same
    /// reads and writes, logs the same records, images, deltas and bytes,
    /// and keeps the same `len` and `height`, through a 2-8-frame LRU
    /// pool. An absent key runs no closure; it and a value rewritten as
    /// it was dirty no frame and log nothing.
    #[test]
    fn update_with_equals_lookup_then_upsert(
        present in proptest::collection::btree_set(0u64..400, 1..300),
        churn in proptest::collection::vec((0u64..400, 0usize..120, any::<bool>()), 0..200),
        bulk in any::<bool>(),
        frames in 2usize..=8,
        ops in proptest::collection::vec((0u64..440, 0u8..4, any::<u8>(), 0u8..4), 1..60),
    ) {
        let (model, mut map) = Logged::build(frames, &present, &churn, bulk);
        let (new, _) = Logged::build(frames, &present, &churn, bulk);
        // Even a two-frame pool holds a root-to-leaf path, so the repeat
        // descents of the model only hit.
        prop_assert!(new.tree.height() as usize <= frames);
        prop_assert_eq!(model.counts(), new.counts());
        for (k, size, fill, via) in ops {
            let key = key8(k);
            let old_len = map.get(&k).map_or(40, Vec::len);
            let largest = MAX_BTREE_ENTRY - key.len();
            let len = match size {
                0 => old_len,
                1 => old_len / 2,
                2 => (old_len + 1 + usize::from(fill % 64)).min(largest),
                _ => largest,
            };
            // Now and then the value already stored, rewritten as it is.
            let val = match map.get(&k) {
                Some(v) if size == 0 && fill % 4 == 0 => v.clone(),
                _ => vec![fill; len],
            };
            let absent = !map.contains_key(&k);
            let unchanged = map.get(&k) == Some(&val);
            if absent || unchanged {
                model.pool.flush_all().unwrap();
                new.pool.flush_all().unwrap();
            }
            let before = new.wal.stats();

            // A hint is the root (no leaf once the tree has split) or the
            // leaf of this key or of another (valid or stale), found by a
            // descent both sides pay: the model's extra descents then only
            // re-pin pages the hint's own descent just pinned.
            let hint = match via {
                0 | 1 => None,
                2 if fill % 2 == 0 => Some(model.tree.metadata().root),
                _ => {
                    let of = if via == 2 { key8(u64::from(fill)) } else { key.clone() };
                    leaf_of(&new.tree, &of);
                    Some(leaf_of(&model.tree, &of))
                }
            };
            let looked_up = match hint {
                Some(hint) => model.tree.get_with_hint(hint, &key, copy_out),
                None => model.tree.get(&key),
            };
            let found = looked_up.unwrap().is_some()
                && model.tree.get_with(&key, |_| Ok::<_, AccessError>(())).unwrap().is_some()
                && !model.tree.insert(&key, &val).unwrap();
            let mut called = false;
            let patch = |v: &mut [u8]| {
                called = true;
                if v.len() != val.len() {
                    return Ok::<_, AccessError>(Some(val.clone()));
                }
                v.copy_from_slice(&val);
                Ok(None)
            };
            let updated = match hint {
                None if via == 1 => new.tree.update(&key, &val),
                Some(hint) => new.tree.update_with_hint(hint, &key, patch),
                None => new.tree.update_with(&key, patch),
            }
            .unwrap();
            prop_assert_eq!(updated, found);
            prop_assert_eq!(updated, !absent);
            if updated {
                map.insert(k, val);
            }
            prop_assert_eq!(model.counts(), new.counts(), "after updating key {}", k);
            if absent {
                prop_assert!(!called, "no closure for an absent key");
            }
            if absent || unchanged {
                prop_assert_eq!(new.wal.stats(), before, "an absent key or a kept value logs nothing");
                let writes = new.pool.stats().writes();
                new.pool.flush_all().unwrap();
                prop_assert_eq!(
                    new.pool.stats().writes(), writes, "an absent key or a kept value dirties nothing"
                );
                model.pool.flush_all().unwrap();
            }
        }
        prop_assert_eq!(model.pages(), new.pages());
        new.tree.validate().unwrap();
    }

    /// `append_all` is one `append` per record: on temporary and
    /// persistent files, under either policy, through a two-to-six-frame
    /// pool and onto a tail with dead slots, it leaves the same records at
    /// the same addresses, the same chain and page bytes, and costs the
    /// same transfers from a cold pool (with the dirty pages flushed
    /// after). It pins each page it touches a bounded number of times,
    /// however many records go in.
    #[test]
    fn append_all_equals_appends(
        temp in any::<bool>(),
        sieve in any::<bool>(),
        frames in 2usize..7,
        prefix in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..30),
        deletes in proptest::collection::vec(any::<usize>(), 0..10),
        batch in proptest::collection::vec(
            prop_oneof![
                8 => proptest::collection::vec(any::<u8>(), 0..20),
                1 => proptest::collection::vec(any::<u8>(), 0..MAX_RECORD + 1),
            ],
            0..400,
        ),
    ) {
        let policy = if sieve { ReplacementPolicy::Sieve } else { ReplacementPolicy::Lru };
        // The same prefix on a fresh pool, with some of its records deleted.
        let setup = || {
            let p = Arc::new(
                BufferPool::builder().capacity(frames).policy(policy).telemetry(true).build(),
            );
            let file = if temp {
                HeapFile::temp(Arc::clone(&p)).unwrap()
            } else {
                HeapFile::create(Arc::clone(&p)).unwrap()
            };
            let rids: Vec<_> = prefix.iter().map(|r| file.append(r).unwrap()).collect();
            for &d in &deletes {
                if !rids.is_empty() {
                    file.delete(rids[d % rids.len()]).unwrap();
                }
            }
            (p, file)
        };
        // Everything a run leaves behind: cold transfers (dirty pages
        // flushed after), pins, records at their addresses, shape, bytes.
        let outcome = |p: &BufferPool, file: &HeapFile, run: &dyn Fn()| {
            let (io, pins) = cold_cost(p, || {
                run();
                p.flush_and_clear().unwrap();
            });
            let records: Vec<_> = file.scan().collect();
            let pages: Vec<Vec<u8>> = (0..file.num_pages())
                .map(|pid| p.read(pid, |v| v.bytes().to_vec()).unwrap())
                .collect();
            (io, pins, records, file.num_pages(), file.len(), pages)
        };

        let (pa, a) = setup();
        let want = outcome(&pa, &a, &|| {
            for r in &batch {
                a.append(r).unwrap();
            }
        });
        let (pb, b) = setup();
        let pages_before = b.num_pages();
        let got = outcome(&pb, &b, &|| b.append_all(&batch).unwrap());

        prop_assert_eq!(&got.0, &want.0, "cold transfers");
        prop_assert_eq!(&got.2, &want.2, "records and addresses");
        prop_assert_eq!((got.3, got.4), (want.3, want.4), "pages and records");
        prop_assert!(got.5 == want.5, "page bytes or chain differ");
        let pins = got.1 .0 + got.1 .1;
        let added = u64::from(b.num_pages() - pages_before);
        prop_assert!(pins <= 1 + 3 * added, "{} pins for {} pages added", pins, added);
    }

    /// External sort equals std sort for any records and any work-memory
    /// budget (spilled or not), with and without dedup.
    #[test]
    fn external_sort_equals_std_sort(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..300),
        work_mem in 256usize..65_536,
        dedup in any::<bool>(),
    ) {
        let p = pool(16);
        let got: Vec<Vec<u8>> =
            external_sort(&p, records.clone().into_iter(), work_mem, dedup).unwrap().collect();
        let mut expect = records;
        expect.sort();
        if dedup {
            expect.dedup();
        }
        prop_assert_eq!(got, expect);
    }

    /// Record codec round-trips arbitrary well-typed tuples.
    #[test]
    fn record_codec_roundtrip(
        n in any::<i64>(),
        s in "\\PC*",
        rel in any::<u16>(),
        key in any::<u64>(),
        oids in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..20),
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let schema = Schema::new(&[
            ("i", ValueType::Int),
            ("s", ValueType::Str),
            ("o", ValueType::Oid),
            ("l", ValueType::OidList),
            ("b", ValueType::Bytes),
        ]);
        let tuple = Tuple::new(vec![
            Value::Int(n),
            Value::Str(s),
            Value::Oid(Oid::new(rel, key)),
            Value::OidList(oids.into_iter().map(|(r, k)| Oid::new(r, k)).collect()),
            Value::Bytes(bytes),
        ]);
        let encoded = encode(&schema, &tuple).unwrap();
        prop_assert_eq!(decode(&schema, &encoded).unwrap(), tuple);
    }
}
