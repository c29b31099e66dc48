//! The page-0 chain head: one opaque blob that survives a restart.
//!
//! A store's first page — by convention page 0, the first page allocated
//! in a fresh store — is a slotted page holding exactly one record, the
//! head `[length: u32][first chain page: u32]` of a chain of overflow
//! pages holding the blob's bytes. The engine keeps its whole persistent
//! state (file roots, allocators, cache directories —
//! `cor_workload::EngineCatalog`) in that blob, so it is the only on-disk
//! format for file metadata. A page 0 whose slot 0 is not one head record
//! (a foreign page, or a store written by a build with another page-0
//! layout) is [`CatalogError::Corrupt`].

use crate::AccessError;
use cor_pagestore::{BufferPool, PageId, NO_PAGE};
use std::sync::Arc;

/// Bytes of the head record: payload length, then first chain page.
const HEAD_LEN: usize = 8;

/// Payload bytes per blob overflow page: one record per page, its first
/// four bytes chaining to the next page.
const BLOB_CHUNK: usize = cor_pagestore::MAX_RECORD - 4;

/// Errors specific to catalog handling, folded into [`AccessError`] via
/// its `Codec` variant would be misleading, so they get a dedicated enum.
#[derive(Debug)]
pub enum CatalogError {
    /// The storage layer failed.
    Access(AccessError),
    /// The catalog page or the blob chain did not parse.
    Corrupt(&'static str),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Access(e) => write!(f, "catalog storage error: {e}"),
            CatalogError::Corrupt(what) => write!(f, "corrupt catalog: {what}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Access(e) => Some(e),
            CatalogError::Corrupt(_) => None,
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

/// The one blob a store keeps on its first page.
///
/// ```
/// use cor_access::Catalog;
/// use cor_pagestore::BufferPool;
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let catalog = Catalog::create(Arc::clone(&pool)).unwrap(); // lands on page 0
/// assert_eq!(catalog.load().unwrap(), b"");
/// catalog.save(b"roots and counters").unwrap();
/// // ... later (or after a FileDisk restart): read it again.
/// let again = Catalog::open(pool).unwrap();
/// assert_eq!(again.load().unwrap(), b"roots and counters");
/// ```
pub struct Catalog {
    pool: Arc<BufferPool>,
    page: PageId,
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn head_record(total: u32, first: PageId) -> [u8; HEAD_LEN] {
    let mut rec = [0; HEAD_LEN];
    rec[..4].copy_from_slice(&total.to_le_bytes());
    rec[4..].copy_from_slice(&first.to_le_bytes());
    rec
}

impl Catalog {
    /// Create a fresh catalog, holding an empty blob, in a newly allocated
    /// page. Call this before creating any relations so the catalog lands
    /// on page 0 and [`Self::open`] can find it after a restart.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self, CatalogError> {
        let page = pool.allocate_page()?;
        pool.write(page, |mut p| {
            p.init();
            p.insert(&head_record(0, NO_PAGE))
                .expect("a head fits an empty page");
        })?;
        Ok(Catalog { pool, page })
    }

    /// Open the catalog of an existing store (page 0). A page 0 that does
    /// not hold exactly one head record is [`CatalogError::Corrupt`].
    pub fn open(pool: Arc<BufferPool>) -> Result<Self, CatalogError> {
        if pool.num_pages() == 0 {
            return Err(CatalogError::Corrupt("empty store has no catalog"));
        }
        let catalog = Catalog { pool, page: 0 };
        catalog.head()?;
        Ok(catalog)
    }

    /// Store `bytes`, replacing the blob. The payload lives in a chain of
    /// dedicated overflow pages (page 0 holds only the head), so a blob
    /// may exceed one page. The new chain is fully written before the head
    /// is replaced in place, and the old chain is freed only afterwards: a
    /// crash between any two of those steps leaves the previously saved
    /// blob intact and readable.
    pub fn save(&self, bytes: &[u8]) -> Result<(), CatalogError> {
        let (total, first) = self.head()?;
        let mut old_chain = Vec::new();
        self.walk_chain(total, first, |pid, _| old_chain.push(pid))?;
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
        let head = head_record(bytes.len() as u32, next);
        self.pool
            .write(self.page, |mut p| p.update(0, &head))?
            .map_err(|_| CatalogError::Corrupt("catalog head cannot be replaced"))?;
        for pid in old_chain {
            let _ = self.pool.free_page(pid);
        }
        Ok(())
    }

    /// Fetch the blob (empty until the first [`save`](Self::save)).
    pub fn load(&self) -> Result<Vec<u8>, CatalogError> {
        let (total, first) = self.head()?;
        // Sized by what the chain actually holds, never by the stored
        // length alone.
        let mut out = Vec::new();
        self.walk_chain(total, first, |_, chunk| out.extend_from_slice(chunk))?;
        if out.len() != total as usize {
            return Err(CatalogError::Corrupt("blob length mismatch"));
        }
        Ok(out)
    }

    /// The head record: `(payload length, first chain page)`.
    fn head(&self) -> Result<(u32, PageId), CatalogError> {
        self.pool.read(self.page, |p| match p.record(0) {
            Some(rec) if p.slot_count() == 1 && rec.len() == HEAD_LEN => {
                Ok((le_u32(rec), le_u32(&rec[4..])))
            }
            _ => Err(CatalogError::Corrupt("page 0 does not hold one chain head")),
        })?
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
                    let rec = p.record(0)?;
                    visit(page, rec.get(4..)?);
                    Some(le_u32(rec))
                })?
                .ok_or(CatalogError::Corrupt("blob chain page has no chunk"))?;
        }
        Ok(())
    }
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
        assert_eq!(cat.load().unwrap(), b"");

        cat.save(b"small").unwrap();
        assert_eq!(cat.load().unwrap(), b"small");

        // Multi-page payload (3+ chain pages).
        let big: Vec<u8> = (0..3 * BLOB_CHUNK + 17).map(|i| (i % 251) as u8).collect();
        cat.save(&big).unwrap();
        assert_eq!(
            Catalog::open(Arc::clone(&pool)).unwrap().load().unwrap(),
            big
        );

        // Replace with a shorter payload; the old chain pages are freed.
        let freed_before = pool.free_pages();
        cat.save(b"short again").unwrap();
        assert_eq!(cat.load().unwrap(), b"short again");
        assert!(
            pool.free_pages() > freed_before,
            "old overflow chain must be freed"
        );

        // Empty blob: no chain pages at all.
        cat.save(b"").unwrap();
        assert_eq!(cat.load().unwrap(), b"");
        // However often it is saved, page 0 holds the one head record.
        pool.read(0, |p| assert_eq!(p.records().count(), 1))
            .unwrap();
    }

    /// Point the head at `first` with a claimed length of `total`.
    fn set_head(pool: &BufferPool, total: u32, first: PageId) {
        pool.write(0, |mut p| p.update(0, &head_record(total, first)))
            .unwrap()
            .unwrap();
    }

    /// Only a page 0 holding exactly one 8-byte record opens: a page
    /// with no record, a second record, a head of another length (the
    /// 16-byte named pointer of an earlier page-0 layout among them) or
    /// bytes that are no slotted page at all are `Corrupt`.
    #[test]
    fn a_page_zero_that_is_not_one_head_is_corrupt() {
        let named = [&[4u8, 6][..], b"engine", &[0; 8]].concat();
        let pages: [&dyn Fn(&mut cor_pagestore::PageMut<'_>); 4] = [
            &|_| {},
            &|p| {
                p.insert(&head_record(0, NO_PAGE)).unwrap();
                p.insert(&head_record(0, NO_PAGE)).unwrap();
            },
            &|p| {
                p.insert(&named).unwrap();
            },
            &|p| p.bytes_mut().fill(0xEE),
        ];
        for (i, fill) in pages.iter().enumerate() {
            let pool = mem_pool();
            Catalog::create(Arc::clone(&pool)).unwrap();
            pool.write(0, |mut p| {
                p.init();
                fill(&mut p);
            })
            .unwrap();
            assert!(
                matches!(Catalog::open(pool), Err(CatalogError::Corrupt(_))),
                "page {i}"
            );
        }
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
        set_head(&pool, 7, looped);

        assert!(matches!(cat.load(), Err(CatalogError::Corrupt(_))));
        assert!(matches!(cat.save(b"new"), Err(CatalogError::Corrupt(_))));
        // A longer claimed length moves the bound, not the outcome.
        set_head(&pool, 3 * BLOB_CHUNK as u32, looped);
        assert!(matches!(cat.load(), Err(CatalogError::Corrupt(_))));
    }

    /// The stored length is a byte from disk too: `u32::MAX` must not
    /// reserve 4 GB before the first chain page is read.
    #[test]
    fn oversized_head_is_corrupt_not_an_allocation() {
        let pool = mem_pool();
        let cat = Catalog::create(Arc::clone(&pool)).unwrap();
        cat.save(b"real").unwrap();
        let (total, first) = cat.head().unwrap();
        set_head(&pool, u32::MAX, first);
        assert!(matches!(cat.load(), Err(CatalogError::Corrupt(_))));
        assert!(matches!(cat.save(b"new"), Err(CatalogError::Corrupt(_))));
        // A chain pointer past the end of the store is caught the same way.
        set_head(&pool, 4, pool.num_pages() + 100);
        assert!(matches!(cat.load(), Err(CatalogError::Corrupt(_))));
        // The intact head reads again.
        set_head(&pool, total, first);
        assert_eq!(cat.load().unwrap(), b"real");
    }
}
