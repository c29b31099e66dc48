//! Slotted pages.
//!
//! The paper ran on commercial INGRES with 2 KB data pages; we use the same
//! page size. Pages hold variable-length records behind a slot array — the
//! INGRES reference manuals call the analogous mechanism "compressed"
//! fixed-length attributes, i.e. variable-length records.
//!
//! Layout of a 2048-byte page:
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header (16 B) | slot array (4 B each, grows ->) ... free ... |
//! |                      ... free ... (<- grows) records         |
//! +--------------------------------------------------------------+
//! ```
//!
//! * header: `slot_count: u16`, `free_end: u16` (start of the record area),
//!   `flags: u32` and `next: u32` (both owned by the access layer — heap
//!   files chain pages through `next`, B-trees mark leaf/internal in
//!   `flags`), plus `lsn: u32` — the page LSN, owned by the buffer pool's
//!   WAL hook (see [`crate::wal`]); zero on pools without a log attached.
//!   The B-tree's custom node layout leaves the same bytes (12..16)
//!   untouched, so the LSN word is valid for every page in the store.
//! * slot: `offset: u16`, `len: u16`. A dead slot has `offset == u16::MAX`.

/// Size of every page, matching the INGRES 2 KB data page of the paper.
pub const PAGE_SIZE: usize = 2048;

/// Byte offset where the slot array begins.
const HEADER_SIZE: usize = 16;
/// Bytes per slot entry.
const SLOT_SIZE: usize = 4;
/// Sentinel offset marking a dead (deleted) slot.
const DEAD: u16 = u16::MAX;
/// Byte offset of the page LSN in the header (the formerly reserved word).
const LSN_OFFSET: usize = 12;

/// An owned page buffer.
pub type PageBuf = [u8; PAGE_SIZE];

/// Identifier of a page within one page store.
pub type PageId = u32;

/// Sentinel for "no page" in `next` pointers.
pub const NO_PAGE: PageId = PageId::MAX;

/// Index of a record slot within a page.
pub type SlotId = u16;

/// Errors raised by slotted-page operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageError {
    /// The record does not fit in the remaining free space of this page.
    PageFull,
    /// The record is larger than any page can hold.
    RecordTooLarge,
    /// The slot id does not refer to a live record.
    BadSlot,
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::PageFull => write!(f, "page full"),
            PageError::RecordTooLarge => write!(f, "record larger than a page"),
            PageError::BadSlot => write!(f, "bad slot id"),
        }
    }
}

impl std::error::Error for PageError {}

/// Largest record a page can hold (one slot, empty page).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

#[inline]
fn get_u16(data: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([data[at], data[at + 1]])
}

#[inline]
fn put_u16(data: &mut [u8], at: usize, v: u16) {
    data[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

#[inline]
fn put_u32(data: &mut [u8], at: usize, v: u32) {
    data[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Read-only view of a slotted page.
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wrap a raw page buffer. The buffer must be `PAGE_SIZE` long.
    pub fn new(data: &'a [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        PageView { data }
    }

    /// The raw page bytes, for access methods with custom node layouts
    /// (the B-tree manages its own sorted entry directory).
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// Number of slots, live or dead.
    pub fn slot_count(&self) -> u16 {
        get_u16(self.data, 0)
    }

    fn free_end(&self) -> usize {
        get_u16(self.data, 2) as usize
    }

    /// Access-layer flags word.
    pub fn flags(&self) -> u32 {
        get_u32(self.data, 4)
    }

    /// Access-layer `next` page pointer.
    pub fn next(&self) -> PageId {
        get_u32(self.data, 8)
    }

    /// The page LSN: the log record that produced this page version, or
    /// [`NO_LSN`](crate::wal::NO_LSN) if the page was never logged.
    /// Stamped by the buffer pool, never by access methods.
    pub fn lsn(&self) -> u32 {
        get_u32(self.data, LSN_OFFSET)
    }

    /// Bytes of a live record, or `None` for dead/out-of-range slots and
    /// for a record whose directory entry points past the page.
    pub fn record(&self, slot: SlotId) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
        let off = get_u16(self.data, at);
        if off == DEAD {
            return None;
        }
        let len = get_u16(self.data, at + 2) as usize;
        self.data.get(off as usize..off as usize + len)
    }

    /// Iterate `(slot, record)` pairs over live slots, in slot order.
    pub fn records(&self) -> impl Iterator<Item = (SlotId, &'a [u8])> + '_ {
        let n = self.slot_count();
        let me = *self;
        (0..n).filter_map(move |s| me.record(s).map(|r| (s, r)))
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.records().count()
    }

    /// Contiguous free bytes between the slot array and the record area.
    pub fn contiguous_free(&self) -> usize {
        self.free_end() - (HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE)
    }

    /// Total reclaimable free bytes (contiguous plus dead-record space).
    pub fn total_free(&self) -> usize {
        let live: usize = self.records().map(|(_, r)| r.len()).sum();
        PAGE_SIZE - HEADER_SIZE - self.slot_count() as usize * SLOT_SIZE - live
    }

    /// Would [`PageMut::insert`] of a `len`-byte record succeed? Exactly
    /// `insert(..).is_ok()`, without a write pin: the record fits the
    /// reclaimable free space, plus a new slot unless a dead one is
    /// reused, and is no longer than [`MAX_RECORD`].
    pub fn fits(&self, len: usize) -> bool {
        let slot = if self.dead_slot_from(0).is_some() {
            0
        } else {
            SLOT_SIZE
        };
        len <= MAX_RECORD && len + slot <= self.total_free()
    }

    /// The first dead slot at or after `from`.
    fn dead_slot_from(&self, from: SlotId) -> Option<SlotId> {
        (from..self.slot_count())
            .find(|&s| get_u16(self.data, HEADER_SIZE + s as usize * SLOT_SIZE) == DEAD)
    }
}

/// Mutable view of a slotted page.
pub struct PageMut<'a> {
    data: &'a mut [u8],
}

impl<'a> PageMut<'a> {
    /// Wrap a raw page buffer. The buffer must be `PAGE_SIZE` long.
    pub fn new(data: &'a mut [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        PageMut { data }
    }

    /// The raw page bytes, for access methods with custom node layouts.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.data
    }

    /// Format the buffer as an empty page.
    pub fn init(&mut self) {
        self.data.fill(0);
        put_u16(self.data, 0, 0);
        put_u16(self.data, 2, PAGE_SIZE as u16);
        put_u32(self.data, 8, NO_PAGE);
    }

    /// Read-only view of the same page.
    pub fn view(&self) -> PageView<'_> {
        PageView::new(self.data)
    }

    /// Set the access-layer flags word.
    pub fn set_flags(&mut self, flags: u32) {
        put_u32(self.data, 4, flags);
    }

    /// Set the access-layer `next` page pointer.
    pub fn set_next(&mut self, next: PageId) {
        put_u32(self.data, 8, next);
    }

    /// Stamp the page LSN. Reserved for the buffer pool (after logging a
    /// mutation) and the recovery redo pass (after applying a record);
    /// access methods must leave the word alone.
    pub fn set_lsn(&mut self, lsn: u32) {
        put_u32(self.data, LSN_OFFSET, lsn);
    }

    /// Insert a record, compacting the page first if fragmentation requires
    /// it. Returns the slot the record was placed in: the first dead slot,
    /// or else a new one at the end of the slot array. This is the
    /// one-record case of [`insert_many`](Self::insert_many).
    #[inline]
    pub fn insert(&mut self, record: &[u8]) -> Result<SlotId, PageError> {
        if record.len() > MAX_RECORD {
            return Err(PageError::RecordTooLarge);
        }
        let mut slot = Err(PageError::PageFull);
        self.insert_many(&[record], |s| slot = Ok(s));
        slot
    }

    /// Insert records from the front of `records` while each one fits,
    /// calling `placed` with each one's slot in order, and return how many
    /// were placed.
    ///
    /// Each record goes to the slot and offset that one
    /// [`insert`](Self::insert) per record would give it, and the page is
    /// compacted at the same point, so the page bytes are identical. The
    /// dead-slot scan and the free-space sum run once per call, not once
    /// per record: inserts only fill dead slots, so the search for the
    /// next one resumes after the last one filled, and each placement
    /// takes its bytes off the running free total. A compaction leaves
    /// no dead space, so it happens at most once per call. A record longer
    /// than [`MAX_RECORD`] never fits, so it ends the batch.
    pub fn insert_many<R: AsRef<[u8]>>(
        &mut self,
        records: &[R],
        mut placed: impl FnMut(SlotId),
    ) -> usize {
        let mut dead = self.view().dead_slot_from(0);
        let mut total_free = self.view().total_free();
        for (done, record) in records.iter().enumerate() {
            let record = record.as_ref();
            // A dead slot can be reused without growing the slot array.
            let need = record.len() + if dead.is_some() { 0 } else { SLOT_SIZE };
            if need > total_free {
                return done;
            }
            if self.view().contiguous_free() < need {
                self.compact();
            }
            debug_assert!(self.view().contiguous_free() >= need);

            let slot = match dead {
                Some(s) => {
                    dead = self.view().dead_slot_from(s + 1);
                    s
                }
                None => {
                    let n = self.view().slot_count();
                    put_u16(self.data, 0, n + 1);
                    n
                }
            };
            let free_end = self.view().free_end() - record.len();
            self.data[free_end..free_end + record.len()].copy_from_slice(record);
            put_u16(self.data, 2, free_end as u16);
            let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
            put_u16(self.data, at, free_end as u16);
            put_u16(self.data, at + 2, record.len() as u16);
            total_free -= need;
            placed(slot);
        }
        records.len()
    }

    /// Delete the record in `slot`.
    pub fn delete(&mut self, slot: SlotId) -> Result<(), PageError> {
        if self.view().record(slot).is_none() {
            return Err(PageError::BadSlot);
        }
        let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
        put_u16(self.data, at, DEAD);
        put_u16(self.data, at + 2, 0);
        Ok(())
    }

    /// Replace the record in `slot` with `record`, preserving the slot id.
    ///
    /// Shrinking or same-size updates happen in place (the paper's updates
    /// modify ChildRel tuples in place); growing updates relocate the record
    /// within the page if space permits.
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> Result<(), PageError> {
        let old = self.view().record(slot).ok_or(PageError::BadSlot)?;
        let (old_off, old_len) = (
            old.as_ptr() as usize - self.data.as_ptr() as usize,
            old.len(),
        );
        if record.len() <= old_len {
            self.data[old_off..old_off + record.len()].copy_from_slice(record);
            let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
            put_u16(self.data, at + 2, record.len() as u16);
            return Ok(());
        }
        if record.len() > MAX_RECORD {
            return Err(PageError::RecordTooLarge);
        }
        // Grow: tombstone the old copy, then re-place. The slot id survives.
        let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
        put_u16(self.data, at, DEAD);
        put_u16(self.data, at + 2, 0);
        if self.view().total_free() < record.len() {
            // Roll back the tombstone so the caller still sees the old value.
            put_u16(self.data, at, old_off as u16);
            put_u16(self.data, at + 2, old_len as u16);
            return Err(PageError::PageFull);
        }
        if self.view().contiguous_free() < record.len() {
            self.compact();
        }
        let free_end = self.view().free_end() - record.len();
        self.data[free_end..free_end + record.len()].copy_from_slice(record);
        put_u16(self.data, 2, free_end as u16);
        put_u16(self.data, at, free_end as u16);
        put_u16(self.data, at + 2, record.len() as u16);
        Ok(())
    }

    /// Rewrite all live records contiguously at the end of the page,
    /// reclaiming dead-record space. Slot ids are preserved.
    pub fn compact(&mut self) {
        let n = self.view().slot_count();
        let mut live: Vec<(SlotId, Vec<u8>)> = Vec::with_capacity(n as usize);
        for s in 0..n {
            if let Some(r) = self.view().record(s) {
                live.push((s, r.to_vec()));
            }
        }
        let mut free_end = PAGE_SIZE;
        for (s, r) in &live {
            free_end -= r.len();
            self.data[free_end..free_end + r.len()].copy_from_slice(r);
            let at = HEADER_SIZE + *s as usize * SLOT_SIZE;
            put_u16(self.data, at, free_end as u16);
            put_u16(self.data, at + 2, r.len() as u16);
        }
        put_u16(self.data, 2, free_end as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> PageBuf {
        let mut buf = [0u8; PAGE_SIZE];
        PageMut::new(&mut buf).init();
        buf
    }

    #[test]
    fn init_yields_empty_page() {
        let buf = fresh();
        let v = PageView::new(&buf);
        assert_eq!(v.slot_count(), 0);
        assert_eq!(v.live_count(), 0);
        assert_eq!(v.next(), NO_PAGE);
        assert_eq!(v.total_free(), PAGE_SIZE - HEADER_SIZE);
    }

    #[test]
    fn insert_and_read_roundtrip() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_ne!(s0, s1);
        assert_eq!(p.view().record(s0).unwrap(), b"hello");
        assert_eq!(p.view().record(s1).unwrap(), b"world!");
        assert_eq!(p.view().live_count(), 2);
    }

    #[test]
    fn empty_records_are_allowed() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.view().record(s).unwrap(), b"");
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s0 = p.insert(b"aaa").unwrap();
        let _s1 = p.insert(b"bbb").unwrap();
        p.delete(s0).unwrap();
        assert!(p.view().record(s0).is_none());
        let s2 = p.insert(b"ccc").unwrap();
        assert_eq!(s2, s0, "dead slot should be reused");
        assert_eq!(p.view().record(s2).unwrap(), b"ccc");
    }

    #[test]
    fn delete_bad_slot_errors() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        assert_eq!(p.delete(0), Err(PageError::BadSlot));
        let s = p.insert(b"x").unwrap();
        p.delete(s).unwrap();
        assert_eq!(p.delete(s), Err(PageError::BadSlot));
    }

    #[test]
    fn page_fills_and_rejects_overflow() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let rec = [7u8; 100];
        let mut count = 0;
        while p.insert(&rec).is_ok() {
            count += 1;
        }
        // 2032 usable bytes / 104 per record = 19 records.
        assert_eq!(count, (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE));
        assert_eq!(p.insert(&rec), Err(PageError::PageFull));
        // A smaller record can still squeeze in.
        assert!(p.view().total_free() >= 8 + SLOT_SIZE);
        p.insert(&[1u8; 8]).unwrap();
    }

    #[test]
    fn record_too_large_is_rejected() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let rec = vec![0u8; MAX_RECORD + 1];
        assert_eq!(p.insert(&rec), Err(PageError::RecordTooLarge));
        let rec = vec![0u8; MAX_RECORD];
        assert!(p.insert(&rec).is_ok());
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let mut slots = Vec::new();
        let rec = [3u8; 100];
        while let Ok(s) = p.insert(&rec) {
            slots.push(s);
        }
        // Delete every other record, then insert records of a larger size
        // that only fit after compaction.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let big = [9u8; 180];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.view().record(s).unwrap(), &big[..]);
        // Untouched records survive compaction.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.view().record(*s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn update_in_place_same_size() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s = p.insert(b"abcdef").unwrap();
        p.update(s, b"ABCDEF").unwrap();
        assert_eq!(p.view().record(s).unwrap(), b"ABCDEF");
    }

    #[test]
    fn update_shrinking() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s = p.insert(b"abcdef").unwrap();
        p.update(s, b"xy").unwrap();
        assert_eq!(p.view().record(s).unwrap(), b"xy");
    }

    #[test]
    fn update_growing_preserves_slot() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s = p.insert(b"ab").unwrap();
        let other = p.insert(b"other").unwrap();
        p.update(s, b"abcdefghij").unwrap();
        assert_eq!(p.view().record(s).unwrap(), b"abcdefghij");
        assert_eq!(p.view().record(other).unwrap(), b"other");
    }

    #[test]
    fn update_growing_fails_cleanly_when_full() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s = p.insert(&[1u8; 100]).unwrap();
        while p.insert(&[2u8; 100]).is_ok() {}
        let grown = vec![9u8; 1000];
        assert_eq!(p.update(s, &grown), Err(PageError::PageFull));
        // Old value still intact after the failed grow.
        assert_eq!(p.view().record(s).unwrap(), &[1u8; 100][..]);
    }

    #[test]
    fn flags_and_next_are_persisted() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        p.set_flags(0xDEAD_BEEF);
        p.set_next(42);
        assert_eq!(p.view().flags(), 0xDEAD_BEEF);
        assert_eq!(p.view().next(), 42);
    }

    #[test]
    fn lsn_word_roundtrips_and_is_independent_of_page_content() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        assert_eq!(p.view().lsn(), 0, "init zeroes the LSN word");
        let s = p.insert(b"payload").unwrap();
        p.set_lsn(0xABCD_1234);
        assert_eq!(p.view().lsn(), 0xABCD_1234);
        // Record operations never disturb the LSN word, and vice versa.
        p.update(s, b"PAYLOAD").unwrap();
        p.set_flags(7);
        p.set_next(9);
        assert_eq!(p.view().lsn(), 0xABCD_1234);
        assert_eq!(p.view().record(s).unwrap(), b"PAYLOAD");
        assert_eq!(p.view().flags(), 7);
        assert_eq!(p.view().next(), 9);
    }

    #[test]
    fn records_iterator_skips_dead_slots() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(a).unwrap();
        p.delete(c).unwrap();
        let live: Vec<_> = p.view().records().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(live, vec![b"b".to_vec()]);
    }
}
