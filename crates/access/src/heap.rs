//! Heap files: unordered chains of slotted pages.
//!
//! Heap files back the temporary relations of the BFS strategies (the
//! `temp` relation of Sec. 3.1) and the sorted runs of the external sorter.
//! Appends fill the tail page and extend the chain when it overflows; scans
//! walk the chain in page order. [`HeapFile::append_all`] fills each page
//! under one pin and places each record in O(1), which is how every query
//! temporary is built; its pages come out byte for byte as one
//! [`HeapFile::append`] per record would leave them, through the same
//! sequence of page allocations, links and transfers.
//!
//! A file comes in one of two page classes. [`HeapFile::create`] makes a
//! persistent relation: every mutation is write-ahead logged and the pages
//! live until someone frees them. [`HeapFile::temp`] makes a query
//! temporary: its pages are still materialized through the pool — the
//! page writes the paper charges BFS for "forming the temporary relation"
//! are counted exactly as before — but they are never logged (a temporary
//! does not outlive its query, so recovery has nothing to restore) and
//! they go back on the pool's free list when the file is dropped.

use crate::AccessError;
use cor_pagestore::{BufferError, BufferPool, PageId, PageMut, SlotId, MAX_RECORD, NO_PAGE};
use std::sync::{Arc, Mutex, Weak};

/// Physical address of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

/// An unordered file of variable-length records.
///
/// ```
/// use cor_access::HeapFile;
/// use cor_pagestore::{BufferPool, IoStats, MemDisk};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let temp = HeapFile::temp(Arc::clone(&pool)).unwrap();
/// temp.append(b"oid-1").unwrap();
/// temp.append(b"oid-2").unwrap();
/// assert_eq!(temp.scan().count(), 2);
/// drop(temp);
/// assert_eq!(pool.free_pages(), 1); // its page is reusable again
/// ```
pub struct HeapFile {
    pool: Arc<BufferPool>,
    first: PageId,
    last: crate::sync_cell::SyncCell<PageId>,
    len: crate::sync_cell::SyncCell<u64>,
    pages: crate::sync_cell::SyncCell<u32>,
    /// `Some` for a query temporary: every page id of the chain, kept in
    /// memory so `Drop` can free the pages without reading the chain back
    /// (by then a scan may have evicted it, and a walk would cost reads).
    /// Shared so a [`HeapScan`] can tell whether its file is still alive.
    temp_pages: Option<Arc<Mutex<Vec<PageId>>>>,
}

impl HeapFile {
    /// Create an empty persistent heap file (allocates its first page).
    /// Every mutation is write-ahead logged when the pool has a WAL.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self, BufferError> {
        Self::with_class(pool, None)
    }

    /// Create an empty query temporary: an unlogged heap file whose pages
    /// return to the pool's free list when it is dropped. Page reads and
    /// writes are counted exactly as for [`Self::create`].
    pub fn temp(pool: Arc<BufferPool>) -> Result<Self, BufferError> {
        Self::with_class(pool, Some(Arc::default()))
    }

    fn with_class(
        pool: Arc<BufferPool>,
        temp_pages: Option<Arc<Mutex<Vec<PageId>>>>,
    ) -> Result<Self, BufferError> {
        let mut file = HeapFile {
            pool,
            first: NO_PAGE,
            last: crate::sync_cell::SyncCell::new(NO_PAGE),
            len: crate::sync_cell::SyncCell::new(0),
            pages: crate::sync_cell::SyncCell::new(1),
            temp_pages,
        };
        file.first = file.allocate()?;
        file.last.set(file.first);
        Ok(file)
    }

    /// Allocate and initialize one page of this file's class.
    fn allocate(&self) -> Result<PageId, BufferError> {
        let pid = match &self.temp_pages {
            None => self.pool.allocate_page()?,
            Some(ids) => {
                let pid = self.pool.allocate_temp_page()?;
                ids.lock().expect("temp page list lock").push(pid);
                pid
            }
        };
        self.write(pid, |mut p| p.init())?;
        Ok(pid)
    }

    /// Mutate one of this file's pages: logged for a persistent file,
    /// unlogged for a temporary.
    fn write<R>(&self, pid: PageId, f: impl FnOnce(PageMut<'_>) -> R) -> Result<R, BufferError> {
        if self.temp_pages.is_some() {
            self.pool.write_temp(pid, f)
        } else {
            self.pool.write(pid, f)
        }
    }

    /// The buffer pool this file lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.len.get()
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages in the chain.
    pub fn num_pages(&self) -> u32 {
        self.pages.get()
    }

    /// Append a record, returning its address. This is the one-record
    /// case of [`append_all`](Self::append_all).
    #[inline]
    pub fn append(&self, record: &[u8]) -> Result<RecordId, AccessError> {
        let mut rid = None;
        self.append_each(&[record], |r| rid = Some(r))?;
        Ok(rid.expect("one record was appended"))
    }

    /// Append `records` in order: each page is filled under one pin.
    ///
    /// Every record lands where one [`append`](Self::append) per record
    /// would put it, and the pool sees the same page sequence without
    /// the repeated pins of the tail: the tail is filled until a record
    /// does not fit, then a fresh page is allocated, the old tail is
    /// linked to it, and the fresh page is filled. A record longer than
    /// [`MAX_RECORD`] is refused before any page is touched.
    pub fn append_all<R: AsRef<[u8]>>(&self, records: &[R]) -> Result<(), AccessError> {
        self.append_each(records, |_| {})
    }

    fn append_each<R: AsRef<[u8]>>(
        &self,
        records: &[R],
        mut placed: impl FnMut(RecordId),
    ) -> Result<(), AccessError> {
        if records.iter().any(|r| r.as_ref().len() > MAX_RECORD) {
            return Err(AccessError::EntryTooLarge);
        }
        if records.is_empty() {
            return Ok(());
        }
        let start = self.last.get();
        let (mut page, mut rest) = (start, records);
        loop {
            let n = self.write(page, |mut p| {
                p.insert_many(rest, |slot| placed(RecordId { page, slot }))
            })?;
            // An empty page takes any record up to `MAX_RECORD`, so only
            // the starting tail can be too full for the next one.
            debug_assert!(n > 0 || page == start, "fresh page {page} took no record");
            self.len.set(self.len.get() + n as u64);
            rest = &rest[n..];
            if rest.is_empty() {
                return Ok(());
            }
            // Tail page full: extend the chain.
            let fresh = self.allocate()?;
            self.write(page, |mut p| p.set_next(fresh))?;
            self.last.set(fresh);
            self.pages.set(self.pages.get() + 1);
            page = fresh;
        }
    }

    /// Fetch the record at `rid`.
    pub fn get(&self, rid: RecordId) -> Result<Option<Vec<u8>>, BufferError> {
        self.pool
            .read(rid.page, |p| p.record(rid.slot).map(|r| r.to_vec()))
    }

    /// Overwrite the record at `rid` in place (must fit in its page).
    pub fn update(&self, rid: RecordId, record: &[u8]) -> Result<bool, BufferError> {
        self.write(rid.page, |mut p| p.update(rid.slot, record).is_ok())
    }

    /// Delete the record at `rid`. Returns whether a record was removed.
    pub fn delete(&self, rid: RecordId) -> Result<bool, BufferError> {
        let removed = self.write(rid.page, |mut p| p.delete(rid.slot).is_ok())?;
        if removed {
            self.len.set(self.len.get() - 1);
        }
        Ok(removed)
    }

    /// Force every page of this file to disk (counting the writes). Used
    /// to materialize temporaries whose creation cost must be charged.
    pub fn flush(&self) -> Result<(), BufferError> {
        let mut page = self.first;
        while page != NO_PAGE {
            self.pool.flush_page(page)?;
            let next = self.pool.read(page, |p| p.next())?;
            page = next;
        }
        Ok(())
    }

    /// Stream all records in chain order. Each step buffers one page's
    /// records, so the scan costs one page read per chained page (when the
    /// page is not already resident).
    ///
    /// The scan holds page ids, not a borrow of the file. Finish it before
    /// dropping a [`Self::temp`] file: the drop frees the pages, and a
    /// page id that has been recycled reads as someone else's data (debug
    /// builds assert against it).
    pub fn scan(&self) -> HeapScan {
        HeapScan {
            pool: Arc::clone(&self.pool),
            next_page: self.first,
            buffered: std::collections::VecDeque::new(),
            temp: self.temp_pages.as_ref().map(Arc::downgrade),
        }
    }
}

impl Drop for HeapFile {
    /// A temporary hands its pages back to the pool, from the in-memory
    /// list — no page is read. A page that cannot be freed (still pinned
    /// by a scan on another thread) stays allocated: a bounded leak,
    /// never an error out of `drop`.
    fn drop(&mut self) {
        if let Some(ids) = self.temp_pages.take() {
            for pid in ids.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
                let _ = self.pool.free_page(pid);
            }
        }
    }
}

/// Streaming scan over a heap file (see [`HeapFile::scan`]).
pub struct HeapScan {
    pool: Arc<BufferPool>,
    next_page: PageId,
    buffered: std::collections::VecDeque<(RecordId, Vec<u8>)>,
    /// The page list of the temporary being scanned, to notice its drop.
    temp: Option<Weak<Mutex<Vec<PageId>>>>,
}

impl Iterator for HeapScan {
    type Item = (RecordId, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.buffered.pop_front() {
                return Some(item);
            }
            if self.next_page == NO_PAGE {
                return None;
            }
            let page = self.next_page;
            debug_assert!(
                self.temp.as_ref().is_none_or(|t| t.strong_count() > 0),
                "scan outlived its temporary: page {page} has been freed"
            );
            let (records, next) = self
                .pool
                .read(page, |p| {
                    let recs: Vec<(SlotId, Vec<u8>)> =
                        p.records().map(|(s, r)| (s, r.to_vec())).collect();
                    (recs, p.next())
                })
                .expect("heap chain page must be readable");
            self.next_page = next;
            self.buffered.extend(
                records
                    .into_iter()
                    .map(|(slot, rec)| (RecordId { page, slot }, rec)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scan outlived its temporary")]
    fn scanning_a_dropped_temporary_is_caught() {
        let temp = HeapFile::temp(pool(8)).unwrap();
        temp.append(b"oid").unwrap();
        let mut scan = temp.scan();
        drop(temp);
        scan.next();
    }

    #[test]
    fn append_and_scan_preserve_order_within_pages() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let records: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for r in &records {
            heap.append(r).unwrap();
        }
        assert_eq!(heap.len(), 100);
        let scanned: Vec<Vec<u8>> = heap.scan().map(|(_, r)| r).collect();
        assert_eq!(scanned, records);
    }

    #[test]
    fn chain_grows_past_one_page() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let rec = [0u8; 200];
        for _ in 0..50 {
            heap.append(&rec).unwrap();
        }
        assert!(
            heap.num_pages() > 1,
            "200-byte x50 must overflow one 2KB page"
        );
        assert_eq!(heap.scan().count(), 50);
    }

    #[test]
    fn get_update_delete() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let rid = heap.append(b"abc").unwrap();
        assert_eq!(heap.get(rid).unwrap().unwrap(), b"abc");
        assert!(heap.update(rid, b"xyz").unwrap());
        assert_eq!(heap.get(rid).unwrap().unwrap(), b"xyz");
        assert!(heap.delete(rid).unwrap());
        assert_eq!(heap.get(rid).unwrap(), None);
        assert!(!heap.delete(rid).unwrap());
        assert_eq!(heap.len(), 0);
    }

    #[test]
    fn scan_skips_deleted_records() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let a = heap.append(b"a").unwrap();
        heap.append(b"b").unwrap();
        let c = heap.append(b"c").unwrap();
        heap.delete(a).unwrap();
        heap.delete(c).unwrap();
        let left: Vec<Vec<u8>> = heap.scan().map(|(_, r)| r).collect();
        assert_eq!(left, vec![b"b".to_vec()]);
    }

    #[test]
    fn scan_costs_about_one_read_per_page_when_cold() {
        let p = pool(4);
        let heap = HeapFile::create(Arc::clone(&p)).unwrap();
        let rec = [7u8; 200];
        for _ in 0..90 {
            heap.append(&rec).unwrap(); // ~9 records/page -> ~10 pages
        }
        let pages = heap.num_pages() as u64;
        assert!(pages >= 10);
        p.flush_and_clear().unwrap();
        let before = p.stats().reads();
        assert_eq!(heap.scan().count(), 90);
        let reads = p.stats().reads() - before;
        assert_eq!(reads, pages, "cold scan should read each page exactly once");
    }

    #[test]
    fn oversize_record_is_refused_before_any_page_is_touched() {
        let p = pool(4);
        let heap = HeapFile::create(Arc::clone(&p)).unwrap();
        heap.append(b"resident").unwrap();
        let before = p.stats().snapshot();
        let big = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(heap.append(&big), Err(AccessError::EntryTooLarge)));
        let batch: [&[u8]; 3] = [b"fits", &big, b"fits too"];
        assert!(matches!(
            heap.append_all(&batch),
            Err(AccessError::EntryTooLarge)
        ));
        assert_eq!((heap.num_pages(), heap.len()), (1, 1));
        assert_eq!(p.stats().snapshot().since(&before), Default::default());
        assert_eq!(heap.scan().count(), 1);
        // The largest record a page holds still goes in, on a new page.
        heap.append(&big[..MAX_RECORD]).unwrap();
        assert_eq!((heap.num_pages(), heap.len()), (2, 2));
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let heap = HeapFile::create(pool(2)).unwrap();
        assert_eq!(heap.scan().count(), 0);
        assert!(heap.is_empty());
    }
}
