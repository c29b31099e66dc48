//! The page-0 blob directory: named opaque blobs that survive a restart.
//!
//! A store's first page — by convention page 0, the first page allocated
//! in a fresh store — is a slotted page of named entries,
//! `[kind: u8][name_len: u8][name][payload]`. The one kind written today
//! is the **blob** (kind 4): a pointer record `[length: u32][first
//! chain page: u32]` to a chain of overflow pages holding the bytes. The
//! engine keeps its whole persistent state (file roots, allocators, cache
//! directories — `cor_workload::EngineCatalog`) in one such blob, so that
//! is the only on-disk format for file metadata.
//!
//! Kinds 0–3 are **retired**: earlier builds wrote typed B-tree, heap,
//! hash and ISAM entries under them. The numbering is frozen and never
//! reused; a page 0 that still carries such records opens, its blobs read
//! as before, and [`Catalog::save_blob`] leaves the foreign records where
//! they are.

use crate::AccessError;
use cor_pagestore::{BufferPool, PageId, NO_PAGE};
use std::sync::Arc;

/// The blob entry kind. Kinds 0–3 are retired (see the module docs).
const KIND_BLOB: u8 = 4;

/// Payload bytes per blob overflow page: one record per page, its first
/// four bytes chaining to the next page.
const BLOB_CHUNK: usize = cor_pagestore::MAX_RECORD - 4;

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
    /// The catalog page or a blob chain did not parse.
    Corrupt(&'static str),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Access(e) => write!(f, "catalog storage error: {e}"),
            CatalogError::CatalogFull => write!(f, "catalog page full"),
            CatalogError::NotFound(n) => write!(f, "no catalog entry {n:?}"),
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

/// A directory of named blobs stored in one page.
///
/// ```
/// use cor_access::Catalog;
/// use cor_pagestore::BufferPool;
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let catalog = Catalog::create(Arc::clone(&pool)).unwrap(); // lands on page 0
/// catalog.save_blob("engine", b"roots and counters").unwrap();
/// // ... later (or after a FileDisk restart): find it again by name.
/// let again = Catalog::open(pool).unwrap();
/// assert_eq!(again.get_blob("engine").unwrap(), b"roots and counters");
/// ```
pub struct Catalog {
    pool: Arc<BufferPool>,
    page: PageId,
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
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

    /// Store or replace a named opaque blob. The payload lives in a chain
    /// of dedicated overflow pages (the catalog page holds only a pointer
    /// record), so a blob may exceed one page. The new chain is fully
    /// written before the pointer record is swapped, and the old chain is
    /// freed only afterwards: a crash between any two of those steps
    /// leaves the previously saved blob intact and readable.
    pub fn save_blob(&self, name: &str, bytes: &[u8]) -> Result<(), CatalogError> {
        assert!(name.len() <= 64, "catalog names are short identifiers");
        let existing = self.blob_pointer(name)?;
        let mut old_chain = Vec::new();
        if let Some((_, total, first)) = existing {
            self.walk_chain(total, first, |pid, _| old_chain.push(pid))?;
        }
        // Write the chain back to front so each page can name its successor.
        let mut next = NO_PAGE;
        for chunk in bytes.chunks(BLOB_CHUNK).rev() {
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
        record.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        record.extend_from_slice(&next.to_le_bytes());
        let ok = self.pool.write(self.page, |mut p| {
            if let Some((slot, _, _)) = existing {
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
        let Some((_, total, first)) = self.blob_pointer(name)? else {
            return Err(CatalogError::NotFound(name.to_string()));
        };
        // Sized by what the chain actually holds, never by the stored
        // length alone.
        let mut out = Vec::new();
        self.walk_chain(total, first, |_, chunk| out.extend_from_slice(chunk))?;
        if out.len() != total as usize {
            return Err(CatalogError::Corrupt("blob length mismatch"));
        }
        Ok(out)
    }

    /// Find the blob pointer record `name`: `(slot, payload length, first
    /// chain page)`.
    fn blob_pointer(
        &self,
        name: &str,
    ) -> Result<Option<(cor_pagestore::SlotId, u32, PageId)>, CatalogError> {
        let found = self.pool.read(self.page, |p| {
            p.records().find_map(|(slot, rec)| {
                let (n, kind, payload) = split_record(rec)?;
                (n == name && kind == KIND_BLOB).then(|| (slot, payload.to_vec()))
            })
        })?;
        match found {
            None => Ok(None),
            Some((slot, p)) if p.len() >= 8 => Ok(Some((slot, le_u32(&p), le_u32(&p[4..])))),
            Some(_) => Err(CatalogError::Corrupt("truncated blob pointer")),
        }
    }

    /// Walk the chain of a `total`-byte blob from page `first`, handing
    /// each page's id and payload to `visit`. Length and `next` pointers
    /// are bytes read from disk, so the walk trusts neither: it stops with
    /// [`CatalogError::Corrupt`] at a page outside the store or once it has
    /// seen the `⌈total / BLOB_CHUNK⌉` pages a blob of that length can
    /// occupy — a chain that loops back on itself ends there instead of
    /// running forever.
    fn walk_chain(
        &self,
        total: u32,
        first: PageId,
        mut visit: impl FnMut(PageId, &[u8]),
    ) -> Result<(), CatalogError> {
        let store_pages = self.pool.num_pages();
        let max_pages = (total as usize).div_ceil(BLOB_CHUNK);
        if max_pages > store_pages as usize {
            return Err(CatalogError::Corrupt("blob longer than its store"));
        }
        let mut page = first;
        let mut seen = 0;
        while page != NO_PAGE {
            if page >= store_pages {
                return Err(CatalogError::Corrupt("blob chain leaves the store"));
            }
            if seen == max_pages {
                return Err(CatalogError::Corrupt("blob chain longer than its length"));
            }
            seen += 1;
            page = self
                .pool
                .read(page, |p| {
                    let (_, rec) = p.records().next()?;
                    let chunk = rec.get(4..)?;
                    visit(page, chunk);
                    Some(le_u32(rec))
                })?
                .ok_or(CatalogError::Corrupt("blob chain page has no chunk"))?;
        }
        Ok(())
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

    fn mem_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(16).build())
    }

    #[test]
    fn blob_roundtrip_small_large_and_replace() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        assert!(matches!(cat.get_blob("b"), Err(CatalogError::NotFound(_))));

        cat.save_blob("b", b"small").unwrap();
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
    fn catalog_full_is_reported() {
        let cat = Catalog::create(mem_pool()).unwrap();
        let mut err = None;
        for i in 0..200 {
            // 60-byte names fill the page quickly.
            let name = format!("{:0>60}", i);
            if let Err(e) = cat.save_blob(&name, b"") {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(CatalogError::CatalogFull)));
    }

    /// A pointer record as `save_blob` writes it.
    fn pointer_record(name: &str, total: u32, first: PageId) -> Vec<u8> {
        let mut rec = vec![KIND_BLOB, name.len() as u8];
        rec.extend_from_slice(name.as_bytes());
        rec.extend_from_slice(&total.to_le_bytes());
        rec.extend_from_slice(&first.to_le_bytes());
        rec
    }

    /// The chain's `next` pointers are bytes from disk: a page that names
    /// itself must end the walk with a typed error, for the read and for
    /// the save that walks the old chain to free it. (Both looped forever,
    /// the read growing its buffer, before the walk was bounded.)
    #[test]
    fn self_referencing_chain_is_corrupt_not_a_hang() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        let looped = pool.allocate_page().unwrap();
        let mut chunk = looped.to_le_bytes().to_vec();
        chunk.extend_from_slice(b"payload");
        pool.write(looped, |mut p| {
            p.init();
            p.insert(&chunk).unwrap();
        })
        .unwrap();
        let rec = pointer_record("b", 7, looped);
        pool.write(0, |mut p| p.insert(&rec).map(|_| ()))
            .unwrap()
            .unwrap();

        assert!(matches!(cat.get_blob("b"), Err(CatalogError::Corrupt(_))));
        assert!(matches!(
            cat.save_blob("b", b"new"),
            Err(CatalogError::Corrupt(_))
        ));
        // A longer claimed length moves the bound, not the outcome.
        let rec = pointer_record("c", 3 * BLOB_CHUNK as u32, looped);
        pool.write(0, |mut p| p.insert(&rec).map(|_| ()))
            .unwrap()
            .unwrap();
        assert!(matches!(cat.get_blob("c"), Err(CatalogError::Corrupt(_))));
    }

    /// The stored length is a byte from disk too: `u32::MAX` must not
    /// reserve 4 GB before the first chain page is read.
    #[test]
    fn oversized_pointer_record_is_corrupt_not_an_allocation() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        cat.save_blob("b", b"real").unwrap();
        let first = cat.blob_pointer("b").unwrap().unwrap().2;
        let rec = pointer_record("huge", u32::MAX, first);
        pool.write(0, |mut p| p.insert(&rec).map(|_| ()))
            .unwrap()
            .unwrap();
        assert!(matches!(
            cat.get_blob("huge"),
            Err(CatalogError::Corrupt(_))
        ));
        assert!(matches!(
            cat.save_blob("huge", b"new"),
            Err(CatalogError::Corrupt(_))
        ));
        // A chain pointer past the end of the store is caught the same way.
        let rec = pointer_record("wild", 4, pool.num_pages() + 100);
        pool.write(0, |mut p| p.insert(&rec).map(|_| ()))
            .unwrap()
            .unwrap();
        assert!(matches!(
            cat.get_blob("wild"),
            Err(CatalogError::Corrupt(_))
        ));
        // The intact blob beside them still reads.
        assert_eq!(cat.get_blob("b").unwrap(), b"real");
    }
}
