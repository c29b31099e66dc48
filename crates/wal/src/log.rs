//! The write-ahead log: record appending, group commit, full-page-write
//! decisions, fuzzy checkpoints, and segment rotation/GC.
//!
//! # Full-page writes
//!
//! The torn-page hazard makes page-LSN gating alone unsound: a torn page
//! can carry a *new* LSN word over an *old* tail, so comparing LSNs
//! against it proves nothing. The fix is PostgreSQL's: the first
//! modification of a page after a checkpoint is logged as an **image**,
//! applied unconditionally at redo; every later modification until the
//! next checkpoint is logged as a **delta**, gated on the page LSN. Both
//! carry only the runs of bytes that differ from a base page (see
//! [`crate::record`]): an image's base is a zero page (the whole page is
//! logged instead when the runs would be no smaller), a delta's the
//! pre-image. A write-back does not start a new image: the pool
//! gives a frame dirtied from clean the LSN of the page's image in the
//! current epoch as its recLSN ([`WalHook::log_page_write`] returns it),
//! so any checkpoint taken while the page is dirty sets its redo horizon
//! at or below that image. Redo after a torn write-back therefore starts
//! from a trusted full image that overwrites whatever the tear left
//! behind, and replays every delta since.
//!
//! # Group commit
//!
//! Records are framed onto the end of one in-memory *log tail*, and the
//! tail reaches the [`LogStore`] in a single [`LogStore::append`] at each
//! of these points: [`Wal::commit`], which the engine calls as each
//! operation ends; before every sync (the pool's [`WalHook::flush_to`],
//! a checkpoint, a segment rotation); and, best effort, when the log is
//! dropped. [`FsyncPolicy`] decides what is synced and when: `Always`
//! hands over and syncs each record as it is appended, `EveryN(n)` syncs
//! at the first commit that finds `n` or more appends unsynced (so after
//! every committed operation at most `n - 1` appended records are
//! unsynced), and `Never` only hands the tail over, leaving syncs to the
//! WAL-before-data rule and checkpoints. Whatever the policy, the buffer
//! pool's [`WalHook::flush_to`] writes the tail and syncs it *before* any
//! page write-back, so the store never runs ahead of the durable log.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cor_obs::flight;
use cor_pagestore::wal::{Lsn, WalHook, NO_LSN};
use cor_pagestore::{DiskError, PageBuf, PageId, PAGE_SIZE};

use crate::record::{
    decode_stream, frame_image, frame_ranges, ranges, Record, RecordBody, KIND_CHECKPOINT,
    KIND_DELTA, KIND_IMAGE, KIND_SPARSE_IMAGE, MAX_CHECKPOINT_DPT,
};
use crate::store::LogStore;

/// When the log syncs appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Hand each record to the store and sync it as it is appended:
    /// nothing appended is ever lost, whenever the crash comes.
    #[default]
    Always,
    /// Group commit: [`Wal::commit`] syncs once `n` or more appends are
    /// unsynced. After every committed operation at most `n - 1` appended
    /// records are unsynced, and a crash can lose them; pages are still
    /// never ahead of the log (WAL-before-data syncs on demand).
    EveryN(u32),
    /// Sync only when WAL-before-data or a checkpoint demands it;
    /// [`Wal::commit`] only hands the log tail to the store.
    Never,
}

/// Configuration for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Group-commit policy (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the active one passes this many
    /// bytes (default 1 MiB).
    pub segment_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 1 << 20,
        }
    }
}

/// Log-writer counters, snapshotted for the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStatsSnapshot {
    /// Records appended.
    pub appends: u64,
    /// Physical log syncs issued.
    pub fsyncs: u64,
    /// Serialized bytes appended.
    pub bytes: u64,
    /// Page-image records among the appends, whole or sparse. The rest
    /// are deltas and checkpoints.
    pub images: u64,
    /// Checkpoint records among the appends.
    pub checkpoints: u64,
}

/// Result of taking a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// LSN of the checkpoint record.
    pub lsn: Lsn,
    /// Redo horizon recorded by this checkpoint:
    /// `min(begin LSN, min recLSN)`, with the begin LSN captured before
    /// the dirty-page table so concurrently logged writes stay covered.
    /// Log records below it are dead and their segments eligible for GC.
    pub redo_start: Lsn,
    /// Entries in the dirty-page table (the full table, even when the
    /// stored record truncates it to [`MAX_CHECKPOINT_DPT`]).
    pub dirty_pages: usize,
    /// Whole log segments garbage-collected below the redo horizon.
    pub segments_removed: usize,
}

struct WalInner {
    /// LSN the next record will carry (starts at 1; 0 is [`NO_LSN`]).
    next_lsn: Lsn,
    /// Highest LSN appended (in the tail or the store; volatile until
    /// synced).
    appended_lsn: Lsn,
    /// Highest LSN known durable.
    durable_lsn: Lsn,
    /// The full-page-write epoch: each page imaged since the last
    /// checkpoint began, mapped to the LSN of that image. Cleared when a
    /// checkpoint reads its begin LSN. A page *not* in this map logs a
    /// full image on its next write.
    imaged: HashMap<PageId, Lsn>,
    /// Bytes appended to the active segment since the last rotation,
    /// the tail's included.
    active_seg_bytes: usize,
    /// Appends since the last sync, for [`FsyncPolicy::EveryN`].
    appends_since_sync: u32,
    /// Set when a hand-over or sync against the store failed. A failed
    /// hand-over may have left garbage bytes in the active segment; any
    /// record appended after that garbage would be invisible to recovery
    /// (decoding stops at the first bad frame), so the log refuses all
    /// further appends, hand-overs and syncs instead of silently dropping
    /// acknowledged work.
    poisoned: bool,
    /// The log tail: records framed since the last hand-over to the
    /// store. Cleared at each hand-over with its capacity kept, so an
    /// append allocates nothing once the tail has seen its largest batch.
    tail: Vec<u8>,
}

/// A zero page: the base a sparse image is taken against.
static ZERO_PAGE: PageBuf = [0; PAGE_SIZE];

/// The write-ahead log. Cheap to share: `Arc<Wal>` implements
/// [`WalHook`] and plugs into `BufferPoolBuilder::wal`.
pub struct Wal {
    store: Arc<dyn LogStore>,
    config: WalConfig,
    inner: Mutex<WalInner>,
    /// Whether the tail holds records, written under the lock, so a
    /// commit with nothing to hand over takes no lock.
    pending: AtomicBool,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    images: AtomicU64,
    checkpoints: AtomicU64,
}

impl Wal {
    /// Create a log over an *empty* store.
    pub fn new(store: Arc<dyn LogStore>, config: WalConfig) -> Self {
        Wal {
            store,
            config,
            inner: Mutex::new(WalInner {
                next_lsn: 1,
                appended_lsn: NO_LSN,
                durable_lsn: NO_LSN,
                imaged: HashMap::new(),
                active_seg_bytes: 0,
                appends_since_sync: 0,
                poisoned: false,
                tail: Vec::new(),
            }),
            pending: AtomicBool::new(false),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            images: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        }
    }

    /// Attach to a store that already holds records (e.g. after
    /// recovery): scans for the highest LSN and continues numbering after
    /// it. The active segment is first cut back to the end of its last
    /// complete record, dropping a torn or zero-filled tail, so no new
    /// record can land behind bytes recovery stops at. When that segment
    /// still holds a record, the log then rotates to a fresh one, so
    /// a segment with a torn past is never appended to; an empty one
    /// takes the new records itself. The epoch's image map starts empty,
    /// which is safe — it only means the first write to each page logs a
    /// full image again.
    pub fn attach(store: Arc<dyn LogStore>, config: WalConfig) -> io::Result<Self> {
        let segments = store.read_segments()?;
        let mut max_lsn = NO_LSN;
        let mut active = None;
        for seg in &segments {
            let decoded = decode_stream(seg);
            for rec in &decoded.records {
                max_lsn = max_lsn.max(rec.lsn);
            }
            active = Some((seg.len(), decoded.consumed, !decoded.records.is_empty()));
        }
        let (active_len, complete_len, active_has_records) = active.unwrap_or((0, 0, false));
        if complete_len < active_len {
            store.truncate_active(complete_len)?;
        }
        if active_has_records {
            store.rotate(max_lsn + 1)?;
        }
        let wal = Self::new(store, config);
        if max_lsn != NO_LSN {
            let mut inner = wal.inner.lock();
            inner.next_lsn = max_lsn + 1;
            inner.appended_lsn = max_lsn;
            inner.durable_lsn = max_lsn;
        }
        Ok(wal)
    }

    /// The backing store (recovery reads it directly).
    pub fn store(&self) -> &Arc<dyn LogStore> {
        &self.store
    }

    /// Current counter values.
    pub fn stats(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            images: self.images.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// Highest LSN appended (volatile until synced).
    pub fn appended_lsn(&self) -> Lsn {
        self.inner.lock().appended_lsn
    }

    fn io_err(&self, op: &'static str, e: io::Error) -> DiskError {
        DiskError::io(op, self.store.describe(), e)
    }

    /// End an operation: hand the log tail to the store in one append
    /// and, under [`FsyncPolicy::EveryN`]`(n)`, sync once `n` or more
    /// appends are unsynced. With an empty tail this is one atomic load.
    /// Fails, and poisons the log, when the store refuses the tail or the
    /// sync; a poisoned log fails every later commit that has records to
    /// hand over.
    #[inline]
    pub fn commit(&self) -> io::Result<()> {
        if !self.pending.load(Ordering::Acquire) {
            return Ok(());
        }
        self.commit_tail()
    }

    #[cold]
    fn commit_tail(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        match self.config.fsync {
            FsyncPolicy::EveryN(n) if inner.appends_since_sync >= n => self.sync_locked(&mut inner),
            _ => self.write_tail(&mut inner),
        }
    }

    fn poison(&self, inner: &mut WalInner) {
        inner.poisoned = true;
        flight::record(
            flight::FlightKind::WalPoison,
            u64::from(inner.appended_lsn),
            0,
            0,
        );
    }

    fn refuse_poisoned(inner: &WalInner) -> io::Result<()> {
        if inner.poisoned {
            return Err(io::Error::other(
                "write-ahead log poisoned by an earlier append/sync failure",
            ));
        }
        Ok(())
    }

    /// Hand the tail to the store in one append.
    fn write_tail(&self, inner: &mut WalInner) -> io::Result<()> {
        if inner.tail.is_empty() {
            return Ok(());
        }
        Self::refuse_poisoned(inner)?;
        if let Err(e) = self.store.append(&inner.tail) {
            // The tail may have landed partially: everything appended
            // after it would sit behind a bad frame and be dropped at
            // recovery, so no further records may be acknowledged.
            self.poison(inner);
            return Err(e);
        }
        inner.tail.clear();
        self.pending.store(false, Ordering::Release);
        Ok(())
    }

    /// Hand the tail over, then make every appended record durable.
    fn sync_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        self.write_tail(inner)?;
        if inner.durable_lsn == inner.appended_lsn {
            inner.appends_since_sync = 0;
            return Ok(());
        }
        Self::refuse_poisoned(inner)?;
        if let Err(e) = self.store.sync() {
            // After a failed fsync the kernel may have dropped the dirty
            // pages it could not write; a later "successful" sync would
            // prove nothing about these bytes. Fail fast from here on.
            self.poison(inner);
            return Err(e);
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        inner.durable_lsn = inner.appended_lsn;
        inner.appends_since_sync = 0;
        Ok(())
    }

    /// Append one record, assigning the next LSN: `encode(out, lsn)`
    /// frames it onto the end of the log tail in one pass. Rotates the
    /// segment first when the active one is over size. Under
    /// [`FsyncPolicy::Always`] the record is handed over and synced
    /// before this returns; otherwise it waits in the tail for the next
    /// commit or sync. `kind` is the record kind, for the flight
    /// recorder.
    fn append_record(
        &self,
        inner: &mut WalInner,
        kind: u8,
        encode: impl FnOnce(&mut Vec<u8>, Lsn),
    ) -> io::Result<Lsn> {
        Self::refuse_poisoned(inner)?;
        if inner.active_seg_bytes >= self.config.segment_bytes {
            // Close the segment durably, then start a fresh one named by
            // the LSN this record will carry.
            self.sync_locked(inner)?;
            self.store.rotate(inner.next_lsn)?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed); // rotate syncs the old segment
            inner.active_seg_bytes = 0;
        }
        let lsn = inner.next_lsn;
        let start = inner.tail.len();
        encode(&mut inner.tail, lsn);
        let len = inner.tail.len() - start;
        let always = self.config.fsync == FsyncPolicy::Always;
        if always {
            // Handed over before anything counts it: a record the store
            // refused was never appended.
            self.write_tail(inner)?;
        } else {
            self.pending.store(true, Ordering::Release);
        }
        inner.next_lsn += 1;
        inner.appended_lsn = lsn;
        inner.active_seg_bytes += len;
        inner.appends_since_sync += 1;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        flight::record(
            flight::FlightKind::WalAppend,
            u64::from(lsn),
            u64::from(kind),
            len as u64,
        );
        if always {
            self.sync_locked(inner)?;
        }
        Ok(lsn)
    }

    /// Append an image of `page`: its runs against a zero page, or the
    /// whole page when those are no smaller. Marks the page imaged in
    /// this epoch.
    fn append_image(
        &self,
        inner: &mut WalInner,
        pid: PageId,
        page: &PageBuf,
    ) -> Result<Lsn, DiskError> {
        let runs = ranges(&ZERO_PAGE, page);
        let lsn = if runs.encoded_len() < PAGE_SIZE {
            self.append_record(inner, KIND_SPARSE_IMAGE, |out, lsn| {
                frame_ranges(out, lsn, KIND_SPARSE_IMAGE, pid, page, &runs)
            })
        } else {
            self.append_record(inner, KIND_IMAGE, |out, lsn| {
                frame_image(out, lsn, pid, page)
            })
        };
        // The image map and counters move only once the record is in the
        // store: marking the page imaged on a failed append would let the
        // next write log a delta against a baseline the log never got.
        let lsn = lsn.map_err(|e| self.io_err("wal append", e))?;
        inner.imaged.insert(pid, lsn);
        self.images.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Take a fuzzy checkpoint: capture a *begin LSN* and start a new
    /// full-page-write epoch, call `capture_dpt` for the pool's
    /// dirty-page table, append a checkpoint record carrying the redo
    /// horizon `min(begin LSN, min recLSN)`, sync the log, and
    /// garbage-collect segments below the horizon.
    ///
    /// Taking the dirty-page table through a closure is what makes the
    /// checkpoint race-free against concurrent writers (ARIES
    /// begin/end-checkpoint): the begin LSN is read **before** the table
    /// is captured, so a page write logged in the window between the
    /// capture and the checkpoint append either carries an LSN `>=` the
    /// begin LSN (covered by redo regardless of the table) or finished
    /// updating its frame before the capture saw it (present in the
    /// table). The epoch starts under the same lock acquisition, so a
    /// page first written inside that window logs an image at an LSN
    /// `>=` the begin LSN: a torn write-back of a page the table missed
    /// is still repaired. The closure runs without the log lock held, so
    /// it may itself append records (the pool's frame latches order
    /// before the log lock).
    pub fn checkpoint(
        &self,
        capture_dpt: impl FnOnce() -> Vec<(PageId, Lsn)>,
    ) -> io::Result<CheckpointInfo> {
        let begin_lsn = {
            let mut inner = self.inner.lock();
            inner.imaged.clear();
            inner.next_lsn
        };
        let mut dirty_pages = capture_dpt();
        let total_dirty = dirty_pages.len();
        let redo_lsn = dirty_pages
            .iter()
            .map(|&(_, rec_lsn)| rec_lsn)
            .min()
            .unwrap_or(begin_lsn)
            .min(begin_lsn);
        dirty_pages.truncate(MAX_CHECKPOINT_DPT);
        let mut inner = self.inner.lock();
        let body = RecordBody::Checkpoint {
            redo_lsn,
            dirty_pages,
        };
        let lsn = self.append_record(&mut inner, KIND_CHECKPOINT, |out, lsn| {
            Record { lsn, body }.encode(out)
        })?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        flight::record(
            flight::FlightKind::Checkpoint,
            u64::from(begin_lsn),
            u64::from(redo_lsn),
            u64::from(lsn),
        );
        self.sync_locked(&mut inner)?;
        let segments_removed = self.store.gc_before(redo_lsn)?;
        Ok(CheckpointInfo {
            lsn,
            redo_start: redo_lsn,
            dirty_pages: total_dirty,
            segments_removed,
        })
    }
}

impl WalHook for Wal {
    fn log_page_write(
        &self,
        pid: PageId,
        before: &PageBuf,
        after: &PageBuf,
    ) -> Result<(Lsn, Lsn), DiskError> {
        let mut inner = self.inner.lock();
        // First write since the checkpoint: an image.
        let Some(&image_lsn) = inner.imaged.get(&pid) else {
            let lsn = self.append_image(&mut inner, pid, after)?;
            return Ok((lsn, lsn));
        };
        // Otherwise a delta of the changed runs against the pre-image —
        // unless a single range from the first changed byte to the last
        // would be so wide that an image is no bigger. Judging by that
        // span keeps which writes are images independent of the runs'
        // encoding.
        let runs = ranges(before, after);
        let delta = match runs.span() {
            // Nothing changed; nothing to log.
            None => None,
            Some((start, end)) if end - start + 8 < 4 + PAGE_SIZE => {
                Some(self.append_record(&mut inner, KIND_DELTA, |out, lsn| {
                    frame_ranges(out, lsn, KIND_DELTA, pid, after, &runs)
                }))
            }
            Some(_) => {
                let lsn = self.append_image(&mut inner, pid, after)?;
                return Ok((lsn, lsn));
            }
        };
        match delta {
            None => Ok((inner.appended_lsn.max(1), image_lsn)),
            Some(appended) => {
                let lsn = appended.map_err(|e| self.io_err("wal append", e))?;
                Ok((lsn, image_lsn))
            }
        }
    }

    fn log_page_image(&self, pid: PageId, image: &PageBuf) -> Result<Lsn, DiskError> {
        let mut inner = self.inner.lock();
        self.append_image(&mut inner, pid, image)
    }

    fn flush_to(&self, lsn: Lsn) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        if inner.durable_lsn >= lsn {
            return Ok(());
        }
        self.sync_locked(&mut inner)
            .map_err(|e| self.io_err("wal sync", e))
    }
}

impl Drop for Wal {
    /// Best effort: hand the tail to the store, unsynced, so a log
    /// dropped between commits leaves its records where the process can
    /// still write them. A crash skips this, as it skips everything.
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        if !inner.poisoned && !inner.tail.is_empty() {
            let _ = self.store.append(&inner.tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemLogStore;
    use cor_pagestore::BufferPool;

    fn buf_with(b: u8) -> PageBuf {
        [b; PAGE_SIZE]
    }

    /// Page-delta records among the appends: every record that is not
    /// an image or a checkpoint.
    fn deltas(s: &WalStatsSnapshot) -> u64 {
        s.appends - s.images - s.checkpoints
    }

    fn config(fsync: FsyncPolicy) -> WalConfig {
        WalConfig {
            fsync,
            ..WalConfig::default()
        }
    }

    /// Log a one-byte change to page `pid`: its image on the first write
    /// in the epoch, a delta after.
    fn touch(wal: &Wal, pid: PageId, at: usize) -> Lsn {
        let zero = buf_with(0);
        let mut v = zero;
        v[at] = 1;
        wal.log_page_write(pid, &zero, &v).unwrap().0
    }

    #[test]
    fn first_write_images_then_deltas() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let zero = buf_with(0);
        let mut v1 = zero;
        v1[100..110].fill(7);
        let (l1, image1) = wal.log_page_write(3, &zero, &v1).unwrap();
        assert_eq!(image1, l1, "the first write is the epoch's image");
        let mut v2 = v1;
        v2[200..204].fill(9);
        let (l2, image2) = wal.log_page_write(3, &v1, &v2).unwrap();
        assert!(l2 > l1);
        assert_eq!(image2, l1, "a delta reports the image it builds on");
        let s = wal.stats();
        assert_eq!((s.images, deltas(&s)), (1, 1));
        // Decode what landed.
        let segs = store.read_segments().unwrap();
        let recs = decode_stream(&segs[0]).records;
        match &recs[0].body {
            RecordBody::SparseImage { pid, ranges } => {
                assert_eq!(*pid, 3);
                assert_eq!(ranges.iter().collect::<Vec<_>>(), [(100, &[7; 10][..])]);
            }
            other => panic!("expected a sparse image, got {other:?}"),
        }
        match &recs[1].body {
            RecordBody::PageDelta { pid, ranges } => {
                assert_eq!(*pid, 3);
                assert_eq!(ranges.iter().collect::<Vec<_>>(), [(200, &[9; 4][..])]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn write_back_keeps_the_epoch_image_and_a_checkpoint_ends_it() {
        let wal = Arc::new(Wal::new(Arc::new(MemLogStore::new()), WalConfig::default()));
        let pool = BufferPool::builder().capacity(4).build();
        pool.attach_wal(wal.clone()).unwrap();
        let touch = |pid, at: usize| pool.write(pid, |mut p| p.bytes_mut()[at] = 1).unwrap();
        let pid = pool.allocate_page().unwrap(); // image, LSN 1
        touch(pid, 100); // delta, LSN 2
        pool.flush_page(pid).unwrap();
        touch(pid, 200); // delta, LSN 3: the write-back did not re-image
        assert_eq!(
            pool.dirty_page_table(),
            vec![(pid, 1)],
            "the re-dirtied frame's recLSN is the epoch image, not its delta"
        );
        wal.checkpoint(|| pool.dirty_page_table()).unwrap(); // LSN 4
        pool.flush_page(pid).unwrap();
        touch(pid, 300); // image, LSN 5: the checkpoint began a new epoch
        assert_eq!(pool.dirty_page_table(), vec![(pid, 5)]);
        let s = wal.stats();
        assert_eq!((s.images, deltas(&s), s.checkpoints), (2, 2, 1));
    }

    #[test]
    fn a_write_inside_the_dpt_capture_is_imaged_in_the_new_epoch() {
        let wal = Wal::new(Arc::new(MemLogStore::new()), WalConfig::default());
        let zero = buf_with(0);
        let mut v1 = zero;
        v1[0] = 1;
        wal.log_page_write(3, &zero, &v1).unwrap(); // the old epoch's image
        let mut v2 = v1;
        v2[1] = 2;
        let mut raced = (NO_LSN, NO_LSN);
        let info = wal
            .checkpoint(|| {
                raced = wal.log_page_write(3, &v1, &v2).unwrap();
                Vec::new() // the table missed the write
            })
            .unwrap();
        let (lsn, image_lsn) = raced;
        assert_eq!(lsn, image_lsn, "an image, not a delta on the old epoch's");
        assert!(lsn >= info.redo_start, "the image is inside redo");
        let s = wal.stats();
        assert_eq!((s.images, deltas(&s)), (2, 0));
    }

    #[test]
    fn whole_page_change_prefers_an_image_over_a_max_delta() {
        let wal = Wal::new(Arc::new(MemLogStore::new()), WalConfig::default());
        let zero = buf_with(0);
        let v1 = buf_with(1);
        wal.log_page_write(1, &zero, &v1).unwrap(); // image (first)
        let v2 = buf_with(2);
        wal.log_page_write(1, &v1, &v2).unwrap(); // whole page differs -> image
        let s = wal.stats();
        assert_eq!((s.images, deltas(&s)), (2, 0));
    }

    #[test]
    fn every_n_syncs_at_the_first_commit_with_n_unsynced_appends() {
        let store = Arc::new(TestStore::new());
        let wal = Wal::new(store.clone(), config(FsyncPolicy::EveryN(4)));
        for pid in 0..3 {
            touch(&wal, pid, 0);
        }
        wal.commit().unwrap();
        assert_eq!(
            wal.stats().fsyncs,
            0,
            "3 unsynced appends are under the batch"
        );
        assert_eq!(store.handovers(), 1, "the commit handed its 3 records over");
        for pid in 3..13 {
            touch(&wal, pid, 0);
        }
        assert_eq!(wal.stats().fsyncs, 0, "no sync inside an append");
        assert_eq!(store.handovers(), 1, "no hand-over inside an append");
        wal.commit().unwrap();
        assert_eq!(wal.stats().fsyncs, 1, "13 unsynced appends: one sync");
        assert_eq!(store.handovers(), 2);
        assert_eq!(store.inner.unsynced_bytes(), 0);
        touch(&wal, 13, 0);
        wal.commit().unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
        assert!(
            store.inner.unsynced_bytes() > 0,
            "one append is left unsynced"
        );
    }

    #[test]
    fn a_commit_hands_its_records_over_in_one_append() {
        for fsync in [FsyncPolicy::EveryN(4), FsyncPolicy::Never] {
            let store = Arc::new(TestStore::new());
            let wal = Wal::new(store.clone(), config(fsync));
            let lsns: Vec<Lsn> = (0..10).map(|pid| touch(&wal, pid, pid as usize)).collect();
            assert_eq!(
                store.handovers(),
                0,
                "{fsync:?}: the records wait in the tail"
            );
            wal.commit().unwrap();
            assert_eq!(store.handovers(), 1, "{fsync:?}");
            let segs = store.read_segments().unwrap();
            let landed: Vec<Lsn> = decode_stream(&segs[0])
                .records
                .iter()
                .map(|r| r.lsn)
                .collect();
            assert_eq!(landed, lsns, "{fsync:?}");
            wal.commit().unwrap();
            assert_eq!(
                store.handovers(),
                1,
                "{fsync:?}: an empty commit hands nothing over"
            );
        }
    }

    #[test]
    fn always_syncs_every_record_and_never_syncs_none() {
        let store = Arc::new(TestStore::new());
        let wal = Wal::new(store.clone(), config(FsyncPolicy::Always));
        for pid in 0..10 {
            touch(&wal, pid, 0);
            assert_eq!(store.inner.unsynced_bytes(), 0, "record {pid} is durable");
        }
        assert_eq!((wal.stats().fsyncs, store.handovers()), (10, 10));
        wal.commit().unwrap();
        assert_eq!((wal.stats().fsyncs, store.handovers()), (10, 10));

        let store = Arc::new(TestStore::new());
        let wal = Wal::new(store.clone(), config(FsyncPolicy::Never));
        for pid in 0..10 {
            touch(&wal, pid, 0);
        }
        wal.commit().unwrap();
        assert_eq!(wal.stats().fsyncs, 0);
        let segs = store.read_segments().unwrap();
        assert_eq!(
            decode_stream(&segs[0]).records.len(),
            10,
            "the tail reached the store"
        );
        store.inner.crash();
        assert_eq!(
            store.read_segments().unwrap()[0].len(),
            0,
            "none of it durable"
        );
    }

    #[test]
    fn flush_to_is_idempotent_and_monotone() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), config(FsyncPolicy::Never));
        let lsn = touch(&wal, 2, 9);
        assert_eq!(
            store.read_segments().unwrap()[0].len(),
            0,
            "the record is in the tail"
        );
        wal.flush_to(lsn).unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
        store.crash();
        let segs = store.read_segments().unwrap();
        assert_eq!(
            decode_stream(&segs[0]).records[0].lsn,
            lsn,
            "durable through lsn"
        );
        wal.flush_to(lsn).unwrap(); // already durable: no extra sync
        assert_eq!(wal.stats().fsyncs, 1);
    }

    #[test]
    fn segment_rotation_and_checkpoint_gc() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(
            store.clone(),
            WalConfig {
                fsync: FsyncPolicy::Always,
                segment_bytes: 4096, // ~2 image records per segment
            },
        );
        let zero = buf_with(0);
        for pid in 0..8 {
            let v = buf_with(pid as u8 + 1);
            wal.log_page_write(pid, &zero, &v).unwrap(); // a whole image: first write
        }
        assert!(store.segment_count() > 2, "rotation must have happened");
        // All pages clean: the checkpoint's redo horizon is its own LSN,
        // so every older segment is garbage.
        let info = wal.checkpoint(Vec::new).unwrap();
        assert_eq!(info.dirty_pages, 0);
        assert!(info.segments_removed >= 2, "{info:?}");
        assert_eq!(store.segment_count(), 1);
        // A dirty-page table holds the horizon back.
        let mut v = zero;
        v[0] = 0xEE;
        let (lsn, _) = wal.log_page_write(9, &zero, &v).unwrap();
        let info = wal.checkpoint(|| vec![(9, lsn)]).unwrap();
        assert_eq!(info.redo_start, lsn);
        assert_eq!(info.dirty_pages, 1);
    }

    #[test]
    fn checkpoint_covers_writes_raced_during_dpt_capture() {
        // A writer that logs between the checkpoint's begin-LSN capture
        // and its record append — and is missed by the captured DPT —
        // must still land above the redo horizon.
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let zero = buf_with(0);
        let mut v = zero;
        v[0] = 7;
        let mut raced_lsn = NO_LSN;
        let info = wal
            .checkpoint(|| {
                raced_lsn = wal.log_page_write(3, &zero, &v).unwrap().0;
                Vec::new() // the snapshot predates the raced write
            })
            .unwrap();
        assert_ne!(raced_lsn, NO_LSN);
        assert!(
            info.redo_start <= raced_lsn,
            "redo horizon {} must not skip the raced write at {}",
            info.redo_start,
            raced_lsn
        );
        assert!(info.lsn > raced_lsn, "checkpoint record appends after");
        // The raced record's segment must have survived GC.
        let recs: Vec<Record> = store
            .read_segments()
            .unwrap()
            .iter()
            .flat_map(|s| decode_stream(s).records)
            .collect();
        assert!(recs.iter().any(|r| r.lsn == raced_lsn));
    }

    #[test]
    fn oversized_dpt_is_capped_in_the_record_but_not_the_horizon() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        // Push next_lsn past the table's recLSNs so the horizon comes
        // from the table, not the begin LSN.
        let zero = buf_with(0);
        for pid in 0..8 {
            let mut v = zero;
            v[0] = pid as u8 + 1;
            wal.log_page_write(pid, &zero, &v).unwrap();
        }
        let dpt: Vec<(PageId, Lsn)> = (0..(MAX_CHECKPOINT_DPT as u32 + 10))
            .map(|i| (i, i + 5))
            .collect();
        let info = wal.checkpoint(|| dpt.clone()).unwrap();
        assert_eq!(info.dirty_pages, MAX_CHECKPOINT_DPT + 10);
        assert_eq!(info.redo_start, 5, "horizon from the full table");
        let recs: Vec<Record> = store
            .read_segments()
            .unwrap()
            .iter()
            .flat_map(|s| decode_stream(s).records)
            .collect();
        match &recs.last().unwrap().body {
            RecordBody::Checkpoint {
                redo_lsn,
                dirty_pages,
            } => {
                assert_eq!(*redo_lsn, 5);
                assert_eq!(dirty_pages.len(), MAX_CHECKPOINT_DPT, "stored copy capped");
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    /// A store that counts its appends and can be told to fail its next
    /// one, then heals.
    struct TestStore {
        inner: MemLogStore,
        fail_next_append: std::sync::atomic::AtomicBool,
        handovers: AtomicU64,
    }

    impl TestStore {
        fn new() -> Self {
            TestStore {
                inner: MemLogStore::new(),
                fail_next_append: std::sync::atomic::AtomicBool::new(false),
                handovers: AtomicU64::new(0),
            }
        }

        fn handovers(&self) -> u64 {
            self.handovers.load(Ordering::SeqCst)
        }
    }

    impl LogStore for TestStore {
        fn append(&self, bytes: &[u8]) -> io::Result<()> {
            if self.fail_next_append.swap(false, Ordering::SeqCst) {
                return Err(io::Error::other("injected append failure"));
            }
            self.handovers.fetch_add(1, Ordering::SeqCst);
            self.inner.append(bytes)
        }
        fn sync(&self) -> io::Result<()> {
            self.inner.sync()
        }
        fn rotate(&self, first_lsn: Lsn) -> io::Result<()> {
            self.inner.rotate(first_lsn)
        }
        fn gc_before(&self, lsn: Lsn) -> io::Result<usize> {
            self.inner.gc_before(lsn)
        }
        fn read_segments(&self) -> io::Result<Vec<Vec<u8>>> {
            self.inner.read_segments()
        }
        fn truncate_active(&self, len: usize) -> io::Result<()> {
            self.inner.truncate_active(len)
        }
        fn segment_count(&self) -> usize {
            self.inner.segment_count()
        }
        fn describe(&self) -> String {
            "flaky-log".to_string()
        }
    }

    #[test]
    fn append_failure_poisons_the_log_and_skips_the_imaged_set() {
        let store = Arc::new(TestStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let zero = buf_with(0);
        let mut v1 = zero;
        v1[0] = 1;
        wal.log_page_write(4, &zero, &v1).unwrap(); // image, healthy
        store.fail_next_append.store(true, Ordering::SeqCst);
        let mut v2 = v1;
        v2[1] = 2;
        assert!(wal.log_page_write(4, &v1, &v2).is_err());
        // The store healed, but the log stays poisoned: the failed append
        // may have left garbage framing in the active segment.
        let mut v3 = v2;
        v3[2] = 3;
        let err = wal.log_page_write(4, &v2, &v3).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(wal.checkpoint(Vec::new).is_err());
        // Only the successful record moved the counters.
        let s = wal.stats();
        assert_eq!((s.appends, s.images, deltas(&s)), (1, 1, 0));
    }

    #[test]
    fn a_failed_commit_poisons_the_log() {
        let store = Arc::new(TestStore::new());
        let wal = Wal::new(store.clone(), config(FsyncPolicy::EveryN(4)));
        let zero = buf_with(0);
        let mut v1 = zero;
        v1[0] = 1;
        wal.log_page_write(4, &zero, &v1).unwrap(); // image
        wal.commit().unwrap(); // healthy hand-over
        let mut v2 = v1;
        v2[1] = 2;
        let (delta, _) = wal.log_page_write(4, &v1, &v2).unwrap(); // into the tail
        store.fail_next_append.store(true, Ordering::SeqCst);
        assert!(wal.commit().is_err());
        // The store healed, but the log stays poisoned: the failed
        // hand-over may have left garbage framing in the active segment.
        let mut v3 = v2;
        v3[2] = 3;
        let err = wal.log_page_write(4, &v2, &v3).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(
            wal.commit().is_err(),
            "the refused tail is never handed over"
        );
        assert!(
            wal.flush_to(delta).is_err(),
            "a page on the lost delta stays unwritten"
        );
        assert!(wal.checkpoint(Vec::new).is_err());
        // The delta was framed; only the image reached the store.
        let s = wal.stats();
        assert_eq!((s.appends, s.images, deltas(&s)), (2, 1, 1));
        assert_eq!(store.handovers(), 1);
        drop(wal); // a poisoned log hands nothing over when dropped
        let segs = store.read_segments().unwrap();
        assert_eq!(decode_stream(&segs[0]).records.len(), 1);
    }

    #[test]
    fn failed_image_append_does_not_move_the_counters() {
        let store = Arc::new(TestStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        store.fail_next_append.store(true, Ordering::SeqCst);
        let zero = buf_with(0);
        assert!(wal.log_page_image(6, &zero).is_err());
        let s = wal.stats();
        assert_eq!((s.appends, s.images, wal.appended_lsn()), (0, 0, NO_LSN));
    }

    #[test]
    fn an_image_whose_hand_over_failed_takes_no_delta() {
        let store = Arc::new(TestStore::new());
        let wal = Wal::new(store.clone(), config(FsyncPolicy::EveryN(4)));
        let zero = buf_with(0);
        let mut v1 = zero;
        v1[0] = 1;
        wal.log_page_image(6, &v1).unwrap(); // into the tail
        store.fail_next_append.store(true, Ordering::SeqCst);
        assert!(wal.commit().is_err());
        let mut v2 = v1;
        v2[1] = 2;
        assert!(
            wal.log_page_write(6, &v1, &v2).is_err(),
            "no delta against an image the store never got"
        );
        assert_eq!(wal.stats().appends, 1);
        assert!(store.read_segments().unwrap()[0].is_empty());
    }

    #[test]
    fn attach_continues_lsn_numbering_after_existing_records() {
        let store = Arc::new(MemLogStore::new());
        let last = {
            let wal = Wal::new(store.clone(), WalConfig::default());
            let zero = buf_with(0);
            let mut v = zero;
            v[0] = 1;
            wal.log_page_write(0, &zero, &v).unwrap();
            let mut v2 = v;
            v2[1] = 2;
            wal.log_page_write(0, &v, &v2).unwrap().0
        };
        let wal = Wal::attach(store.clone(), WalConfig::default()).unwrap();
        assert_eq!(wal.appended_lsn(), last);
        let zero = buf_with(0);
        let mut v = zero;
        v[5] = 5;
        let (next, _) = wal.log_page_write(1, &zero, &v).unwrap();
        assert_eq!(next, last + 1, "numbering continues");
        assert!(store.segment_count() >= 2, "fresh segment after attach");
    }
}
