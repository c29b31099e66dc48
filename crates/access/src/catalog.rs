//! A persistent catalog of access-method files.
//!
//! B-trees, heap files and hash files keep their structural metadata
//! (roots, chains, bucket directories) in memory; to survive a process
//! restart over a [`cor_pagestore::FileDisk`] store, that metadata is
//! saved into a **catalog page** — by convention page 0, the first page
//! allocated in a fresh store — as named entries. Reopening a database is
//! then: open the disk, read the catalog, reattach every file by name.
//!
//! The catalog reuses the slotted-page machinery: one record per entry,
//! `[kind: u8][name_len: u8][name][metadata]`. A 2 KB page holds dozens of
//! entries — ample for this workspace's fixed schemas. [`Catalog::save`]
//! replaces an existing entry of the same name.

use crate::btree::{BTreeFile, BTreeMeta};
use crate::hash::{HashFile, HashMeta};
use crate::heap::{HeapFile, HeapMeta};
use crate::isam::IsamIndex;
use crate::AccessError;
use cor_pagestore::{BufferPool, PageId, NO_PAGE};
use std::sync::Arc;

const KIND_BTREE: u8 = 0;
const KIND_HEAP: u8 = 1;
const KIND_HASH: u8 = 2;
const KIND_ISAM: u8 = 3;
const KIND_BLOB: u8 = 4;

/// Payload bytes per blob overflow page: one record per page, its first
/// four bytes chaining to the next page.
const BLOB_CHUNK: usize = cor_pagestore::MAX_RECORD - 4;

/// Metadata of one cataloged file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileMeta {
    /// A B-tree.
    BTree(BTreeMeta),
    /// A heap file.
    Heap(HeapMeta),
    /// A hash file.
    Hash(HashMeta),
    /// A static ISAM index (stored as its underlying packed B-tree).
    Isam(BTreeMeta),
}

/// Errors specific to catalog handling, folded into [`AccessError`] via
/// its `Codec` variant would be misleading, so they get a dedicated enum.
#[derive(Debug)]
pub enum CatalogError {
    /// The storage layer failed.
    Access(AccessError),
    /// The catalog page has no room for another entry.
    CatalogFull,
    /// No entry with the requested name.
    NotFound(String),
    /// Entry exists but holds a different kind of file.
    WrongKind {
        /// The entry name.
        name: String,
        /// What the caller asked for.
        expected: &'static str,
    },
    /// The catalog page contents did not parse.
    Corrupt(&'static str),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Access(e) => write!(f, "catalog storage error: {e}"),
            CatalogError::CatalogFull => write!(f, "catalog page full"),
            CatalogError::NotFound(n) => write!(f, "no catalog entry {n:?}"),
            CatalogError::WrongKind { name, expected } => {
                write!(f, "catalog entry {name:?} is not a {expected}")
            }
            CatalogError::Corrupt(what) => write!(f, "corrupt catalog: {what}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Access(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AccessError> for CatalogError {
    fn from(e: AccessError) -> Self {
        CatalogError::Access(e)
    }
}

impl From<cor_pagestore::BufferError> for CatalogError {
    fn from(e: cor_pagestore::BufferError) -> Self {
        CatalogError::Access(AccessError::Buffer(e))
    }
}

/// A named directory of access-method files stored in one page.
///
/// ```
/// use cor_access::{BTreeFile, Catalog};
/// use cor_pagestore::{BufferPool, IoStats, MemDisk};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let catalog = Catalog::create(Arc::clone(&pool)).unwrap(); // lands on page 0
/// let tree = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
/// tree.insert(&1u64.to_be_bytes(), b"v").unwrap();
/// catalog.save_btree("person", &tree).unwrap();
/// // ... later (or after a FileDisk restart): reattach by name.
/// let again = catalog.open_btree("person").unwrap();
/// assert_eq!(again.get(&1u64.to_be_bytes()).unwrap().unwrap(), b"v");
/// ```
pub struct Catalog {
    pool: Arc<BufferPool>,
    page: PageId,
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn u16(&mut self) -> Result<u16, CatalogError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, CatalogError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, CatalogError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CatalogError> {
        if self.0.len() < n {
            return Err(CatalogError::Corrupt("truncated entry"));
        }
        let (h, t) = self.0.split_at(n);
        self.0 = t;
        Ok(h)
    }
}

fn encode_meta(meta: &FileMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    match meta {
        FileMeta::BTree(m) | FileMeta::Isam(m) => {
            out.extend_from_slice(&m.key_len.to_le_bytes());
            push_u32(&mut out, m.root);
            push_u32(&mut out, m.first_leaf);
            push_u64(&mut out, m.len);
            push_u32(&mut out, m.height);
            push_u32(&mut out, m.leaf_pages);
        }
        FileMeta::Heap(m) => {
            push_u32(&mut out, m.first);
            push_u32(&mut out, m.last);
            push_u64(&mut out, m.len);
            push_u32(&mut out, m.pages);
        }
        FileMeta::Hash(m) => {
            push_u32(&mut out, m.first_bucket);
            push_u32(&mut out, m.num_buckets);
            push_u64(&mut out, m.len);
        }
    }
    out
}

fn decode_meta(kind: u8, bytes: &[u8]) -> Result<FileMeta, CatalogError> {
    let mut r = Reader(bytes);
    match kind {
        KIND_BTREE | KIND_ISAM => {
            let m = BTreeMeta {
                key_len: r.u16()?,
                root: r.u32()?,
                first_leaf: r.u32()?,
                len: r.u64()?,
                height: r.u32()?,
                leaf_pages: r.u32()?,
            };
            Ok(if kind == KIND_BTREE {
                FileMeta::BTree(m)
            } else {
                FileMeta::Isam(m)
            })
        }
        KIND_HEAP => Ok(FileMeta::Heap(HeapMeta {
            first: r.u32()?,
            last: r.u32()?,
            len: r.u64()?,
            pages: r.u32()?,
        })),
        KIND_HASH => Ok(FileMeta::Hash(HashMeta {
            first_bucket: r.u32()?,
            num_buckets: r.u32()?,
            len: r.u64()?,
        })),
        KIND_BLOB => Err(CatalogError::Corrupt(
            "blob entries are read with get_blob, not get",
        )),
        _ => Err(CatalogError::Corrupt("unknown entry kind")),
    }
}

fn kind_of(meta: &FileMeta) -> u8 {
    match meta {
        FileMeta::BTree(_) => KIND_BTREE,
        FileMeta::Heap(_) => KIND_HEAP,
        FileMeta::Hash(_) => KIND_HASH,
        FileMeta::Isam(_) => KIND_ISAM,
    }
}

impl Catalog {
    /// Create a fresh catalog in a newly allocated page. Call this before
    /// creating any relations so the catalog lands on page 0 and
    /// [`Self::open`] can find it after a restart.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self, CatalogError> {
        let page = pool.allocate_page()?;
        pool.write(page, |mut p| p.init())?;
        Ok(Catalog { pool, page })
    }

    /// Open the catalog of an existing store (page 0).
    pub fn open(pool: Arc<BufferPool>) -> Result<Self, CatalogError> {
        if pool.num_pages() == 0 {
            return Err(CatalogError::Corrupt("empty store has no catalog"));
        }
        Ok(Catalog { pool, page: 0 })
    }

    /// The catalog's page id.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// Store or replace the entry `name`.
    pub fn save(&self, name: &str, meta: FileMeta) -> Result<(), CatalogError> {
        assert!(name.len() <= 64, "catalog names are short identifiers");
        let mut record = vec![kind_of(&meta), name.len() as u8];
        record.extend_from_slice(name.as_bytes());
        record.extend_from_slice(&encode_meta(&meta));

        let existing = self.find_slot(name)?;
        let ok = self.pool.write(self.page, |mut p| {
            if let Some(slot) = existing {
                let _ = p.delete(slot);
            }
            p.insert(&record).is_ok()
        })?;
        if !ok {
            return Err(CatalogError::CatalogFull);
        }
        Ok(())
    }

    fn find_slot(&self, name: &str) -> Result<Option<cor_pagestore::SlotId>, CatalogError> {
        self.pool
            .read(self.page, |p| {
                for (slot, rec) in p.records() {
                    if let Some((n, _, _)) = split_record(rec) {
                        if n == name {
                            return Some(slot);
                        }
                    }
                }
                None
            })
            .map_err(Into::into)
    }

    /// Fetch the entry `name`.
    pub fn get(&self, name: &str) -> Result<FileMeta, CatalogError> {
        let found = self.pool.read(self.page, |p| {
            for (_, rec) in p.records() {
                if let Some((n, kind, meta)) = split_record(rec) {
                    if n == name {
                        return Some((kind, meta.to_vec()));
                    }
                }
            }
            None
        })?;
        let (kind, bytes) = found.ok_or_else(|| CatalogError::NotFound(name.to_string()))?;
        decode_meta(kind, &bytes)
    }

    /// List all entry names.
    pub fn names(&self) -> Result<Vec<String>, CatalogError> {
        Ok(self.pool.read(self.page, |p| {
            p.records()
                .filter_map(|(_, rec)| split_record(rec).map(|(n, _, _)| n.to_string()))
                .collect()
        })?)
    }

    /// Remove the entry `name`. Returns whether it existed.
    pub fn remove(&self, name: &str) -> Result<bool, CatalogError> {
        let Some(slot) = self.find_slot(name)? else {
            return Ok(false);
        };
        self.pool.write(self.page, |mut p| p.delete(slot))?.ok();
        Ok(true)
    }

    // --- typed convenience wrappers ---

    /// Persist a B-tree under `name`.
    pub fn save_btree(&self, name: &str, tree: &BTreeFile) -> Result<(), CatalogError> {
        self.save(name, FileMeta::BTree(tree.metadata()))
    }

    /// Reattach a persisted B-tree.
    pub fn open_btree(&self, name: &str) -> Result<BTreeFile, CatalogError> {
        match self.get(name)? {
            FileMeta::BTree(m) => Ok(BTreeFile::from_metadata(Arc::clone(&self.pool), m)?),
            _ => Err(CatalogError::WrongKind {
                name: name.to_string(),
                expected: "B-tree",
            }),
        }
    }

    /// Persist a heap file under `name`.
    pub fn save_heap(&self, name: &str, heap: &HeapFile) -> Result<(), CatalogError> {
        self.save(name, FileMeta::Heap(heap.metadata()))
    }

    /// Reattach a persisted heap file.
    pub fn open_heap(&self, name: &str) -> Result<HeapFile, CatalogError> {
        match self.get(name)? {
            FileMeta::Heap(m) => Ok(HeapFile::from_metadata(Arc::clone(&self.pool), m)),
            _ => Err(CatalogError::WrongKind {
                name: name.to_string(),
                expected: "heap file",
            }),
        }
    }

    /// Persist a hash file under `name`.
    pub fn save_hash(&self, name: &str, hash: &HashFile) -> Result<(), CatalogError> {
        self.save(name, FileMeta::Hash(hash.metadata()))
    }

    /// Reattach a persisted hash file.
    pub fn open_hash(&self, name: &str) -> Result<HashFile, CatalogError> {
        match self.get(name)? {
            FileMeta::Hash(m) => Ok(HashFile::from_metadata(Arc::clone(&self.pool), m)),
            _ => Err(CatalogError::WrongKind {
                name: name.to_string(),
                expected: "hash file",
            }),
        }
    }

    /// Persist an ISAM index under `name`.
    pub fn save_isam(&self, name: &str, isam: &IsamIndex) -> Result<(), CatalogError> {
        self.save(name, FileMeta::Isam(isam.metadata()))
    }

    /// Reattach a persisted ISAM index.
    pub fn open_isam(&self, name: &str) -> Result<IsamIndex, CatalogError> {
        match self.get(name)? {
            FileMeta::Isam(m) => Ok(IsamIndex::from_metadata(Arc::clone(&self.pool), m)?),
            _ => Err(CatalogError::WrongKind {
                name: name.to_string(),
                expected: "ISAM index",
            }),
        }
    }

    // --- opaque blob entries ---

    /// Store or replace a named opaque blob. The payload lives in a chain
    /// of dedicated overflow pages (the catalog page holds only a pointer
    /// record), so a blob may exceed one page. The new chain is fully
    /// written before the pointer record is swapped, and the old chain is
    /// freed only afterwards: a crash between any two of those steps
    /// leaves the previously saved blob intact and readable.
    pub fn save_blob(&self, name: &str, bytes: &[u8]) -> Result<(), CatalogError> {
        assert!(name.len() <= 64, "catalog names are short identifiers");
        let old_chain = match self.blob_pointer(name)? {
            Some((_, first)) => self.chain_pages(first)?,
            None => Vec::new(),
        };
        // Write the chain back to front so each page can name its successor.
        let mut next = NO_PAGE;
        let chunks: Vec<&[u8]> = bytes.chunks(BLOB_CHUNK).collect();
        for chunk in chunks.iter().rev() {
            let pid = self.pool.allocate_page()?;
            let mut rec = Vec::with_capacity(4 + chunk.len());
            rec.extend_from_slice(&next.to_le_bytes());
            rec.extend_from_slice(chunk);
            self.pool.write(pid, |mut p| {
                p.init();
                p.insert(&rec).expect("blob chunk fits an empty page");
            })?;
            next = pid;
        }
        let mut record = vec![KIND_BLOB, name.len() as u8];
        record.extend_from_slice(name.as_bytes());
        push_u32(&mut record, bytes.len() as u32);
        push_u32(&mut record, next);
        let existing = self.find_slot(name)?;
        let ok = self.pool.write(self.page, |mut p| {
            if let Some(slot) = existing {
                let _ = p.delete(slot);
            }
            p.insert(&record).is_ok()
        })?;
        if !ok {
            return Err(CatalogError::CatalogFull);
        }
        for pid in old_chain {
            let _ = self.pool.free_page(pid);
        }
        Ok(())
    }

    /// Fetch the blob stored under `name`.
    pub fn get_blob(&self, name: &str) -> Result<Vec<u8>, CatalogError> {
        let Some((total, mut page)) = self.blob_pointer(name)? else {
            return Err(CatalogError::NotFound(name.to_string()));
        };
        let mut out = Vec::with_capacity(total as usize);
        while page != NO_PAGE {
            let rec = self
                .pool
                .read(page, |p| p.records().next().map(|(_, r)| r.to_vec()))?
                .ok_or(CatalogError::Corrupt("blob chain page has no record"))?;
            if rec.len() < 4 {
                return Err(CatalogError::Corrupt("short blob chunk"));
            }
            page = PageId::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            out.extend_from_slice(&rec[4..]);
        }
        if out.len() != total as usize {
            return Err(CatalogError::Corrupt("blob length mismatch"));
        }
        Ok(out)
    }

    /// Does a blob entry `name` exist?
    pub fn has_blob(&self, name: &str) -> Result<bool, CatalogError> {
        Ok(self.blob_pointer(name)?.is_some())
    }

    /// Read a blob pointer record: `(payload length, first chain page)`.
    fn blob_pointer(&self, name: &str) -> Result<Option<(u32, PageId)>, CatalogError> {
        let found = self.pool.read(self.page, |p| {
            for (_, rec) in p.records() {
                if let Some((n, kind, meta)) = split_record(rec) {
                    if n == name && kind == KIND_BLOB {
                        return Some(meta.to_vec());
                    }
                }
            }
            None
        })?;
        let Some(meta) = found else { return Ok(None) };
        let mut r = Reader(&meta);
        Ok(Some((r.u32()?, r.u32()?)))
    }

    /// Collect the page ids of a blob chain starting at `page`.
    fn chain_pages(&self, mut page: PageId) -> Result<Vec<PageId>, CatalogError> {
        let mut out = Vec::new();
        while page != NO_PAGE {
            out.push(page);
            let next = self
                .pool
                .read(page, |p| {
                    p.records().next().and_then(|(_, rec)| {
                        (rec.len() >= 4)
                            .then(|| PageId::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]))
                    })
                })?
                .ok_or(CatalogError::Corrupt("blob chain page has no record"))?;
            page = next;
        }
        Ok(out)
    }
}

fn split_record(rec: &[u8]) -> Option<(&str, u8, &[u8])> {
    if rec.len() < 2 {
        return None;
    }
    let kind = rec[0];
    let name_len = rec[1] as usize;
    if rec.len() < 2 + name_len {
        return None;
    }
    let name = std::str::from_utf8(&rec[2..2 + name_len]).ok()?;
    Some((name, kind, &rec[2 + name_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_pagestore::FileDisk;

    fn mem_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(16).build())
    }

    fn key8(k: u64) -> Vec<u8> {
        k.to_be_bytes().to_vec()
    }

    #[test]
    fn save_get_roundtrip_all_kinds() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();

        let tree = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
        tree.insert(&key8(1), b"v").unwrap();
        cat.save_btree("tree", &tree).unwrap();

        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        heap.append(b"rec").unwrap();
        cat.save_heap("heap", &heap).unwrap();

        let hash = HashFile::create(Arc::clone(&pool), 4).unwrap();
        hash.put(b"k", b"v").unwrap();
        cat.save_hash("hash", &hash).unwrap();

        let isam = IsamIndex::build(Arc::clone(&pool), 8, vec![(key8(1), b"p".to_vec())]).unwrap();
        cat.save_isam("isam", &isam).unwrap();

        let mut names = cat.names().unwrap();
        names.sort();
        assert_eq!(names, vec!["hash", "heap", "isam", "tree"]);

        assert_eq!(
            cat.open_btree("tree")
                .unwrap()
                .get(&key8(1))
                .unwrap()
                .unwrap(),
            b"v"
        );
        assert_eq!(cat.open_heap("heap").unwrap().len(), 1);
        assert_eq!(
            cat.open_hash("hash").unwrap().get(b"k").unwrap().unwrap(),
            b"v"
        );
        assert_eq!(
            cat.open_isam("isam")
                .unwrap()
                .lookup_with(&key8(1), |v| Ok::<_, AccessError>(v.to_vec()))
                .unwrap()
                .unwrap(),
            b"p"
        );
    }

    #[test]
    fn save_replaces_existing_entry() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        let t1 = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
        t1.insert(&key8(1), b"one").unwrap();
        cat.save_btree("t", &t1).unwrap();
        // Mutate and re-save: new metadata replaces old.
        for k in 0..200u64 {
            t1.insert(&key8(k), &[9u8; 80]).unwrap();
        }
        cat.save_btree("t", &t1).unwrap();
        assert_eq!(cat.names().unwrap().len(), 1);
        let reopened = cat.open_btree("t").unwrap();
        assert_eq!(reopened.len(), 200);
        assert_eq!(reopened.get(&key8(150)).unwrap().unwrap(), vec![9u8; 80]);
    }

    #[test]
    fn missing_and_wrong_kind_errors() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        assert!(matches!(cat.get("nope"), Err(CatalogError::NotFound(_))));
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        cat.save_heap("h", &heap).unwrap();
        assert!(matches!(
            cat.open_btree("h"),
            Err(CatalogError::WrongKind { .. })
        ));
        assert!(cat.remove("h").unwrap());
        assert!(!cat.remove("h").unwrap());
    }

    #[test]
    fn survives_a_real_restart_on_filedisk() {
        let dir = std::env::temp_dir().join(format!("cor-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");

        {
            let disk = FileDisk::open(&path).unwrap();
            let pool = Arc::new(
                BufferPool::builder()
                    .disk(Box::new(disk))
                    .capacity(16)
                    .build(),
            );
            let cat = Catalog::create(Arc::clone(&pool)).unwrap();
            let tree = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
            for k in 0..500u64 {
                tree.insert(&key8(k), format!("value-{k}").as_bytes())
                    .unwrap();
            }
            cat.save_btree("persons", &tree).unwrap();
            pool.flush_all().unwrap();
        } // process "exits"

        let disk = FileDisk::open(&path).unwrap();
        let pool = Arc::new(
            BufferPool::builder()
                .disk(Box::new(disk))
                .capacity(16)
                .build(),
        );
        let cat = Catalog::open(Arc::clone(&pool)).unwrap();
        let tree = cat.open_btree("persons").unwrap();
        assert_eq!(tree.len(), 500);
        for k in [0u64, 250, 499] {
            assert_eq!(
                tree.get(&key8(k)).unwrap().unwrap(),
                format!("value-{k}").into_bytes()
            );
        }
        let range: Vec<_> = tree.range(&key8(10), &key8(12)).unwrap().collect();
        assert_eq!(range.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blob_roundtrip_small_large_and_replace() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        assert!(!cat.has_blob("b").unwrap());
        assert!(matches!(cat.get_blob("b"), Err(CatalogError::NotFound(_))));

        cat.save_blob("b", b"small").unwrap();
        assert!(cat.has_blob("b").unwrap());
        assert_eq!(cat.get_blob("b").unwrap(), b"small");

        // Multi-page payload (3+ chain pages).
        let big: Vec<u8> = (0..3 * BLOB_CHUNK + 17).map(|i| (i % 251) as u8).collect();
        cat.save_blob("b", &big).unwrap();
        assert_eq!(cat.get_blob("b").unwrap(), big);

        // Replace with a shorter payload; the old chain pages are freed.
        let freed_before = pool.free_pages();
        cat.save_blob("b", b"short again").unwrap();
        assert_eq!(cat.get_blob("b").unwrap(), b"short again");
        assert!(
            pool.free_pages() > freed_before,
            "old overflow chain must be freed"
        );

        // Empty blob: no chain pages at all.
        cat.save_blob("empty", b"").unwrap();
        assert_eq!(cat.get_blob("empty").unwrap(), b"");
    }

    #[test]
    fn blobs_coexist_with_file_entries() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        let tree = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
        tree.insert(&key8(1), b"v").unwrap();
        cat.save_btree("tree", &tree).unwrap();
        cat.save_blob("config", b"\x01\x02\x03").unwrap();
        assert_eq!(cat.names().unwrap().len(), 2);
        assert_eq!(
            cat.open_btree("tree")
                .unwrap()
                .get(&key8(1))
                .unwrap()
                .unwrap(),
            b"v"
        );
        assert_eq!(cat.get_blob("config").unwrap(), b"\x01\x02\x03");
        // A blob is not a file entry.
        assert!(matches!(cat.get("config"), Err(CatalogError::Corrupt(_))));
    }

    #[test]
    fn catalog_full_is_reported() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        let mut err = None;
        for i in 0..200 {
            // 64-byte names fill the page quickly.
            let name = format!("{:0>60}", i);
            if let Err(e) = cat.save_heap(&name, &heap) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(CatalogError::CatalogFull)));
    }
}
