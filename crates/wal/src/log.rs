//! The write-ahead log: record appending, group commit, full-page-write
//! decisions, fuzzy checkpoints, and segment rotation/GC.
//!
//! # Full-page writes
//!
//! The torn-page hazard makes page-LSN gating alone unsound: a torn page
//! can carry a *new* LSN word over an *old* tail, so comparing LSNs
//! against it proves nothing. The fix is PostgreSQL's: the first
//! modification of a page after a checkpoint is logged as a **full
//! image**, applied unconditionally at redo; every later modification
//! until the next checkpoint is logged as a byte-range **delta**, gated
//! on the page LSN. A write-back does not start a new image: the pool
//! gives a frame dirtied from clean the LSN of the page's image in the
//! current epoch as its recLSN ([`WalHook::log_page_write`] returns it),
//! so any checkpoint taken while the page is dirty sets its redo horizon
//! at or below that image. Redo after a torn write-back therefore starts
//! from a trusted full image that overwrites whatever the tear left
//! behind, and replays every delta since.
//!
//! # Group commit
//!
//! [`FsyncPolicy`] batches log syncs: `Always` syncs every append
//! (maximum durability, one fsync per update), `EveryN(n)` syncs every
//! `n` appends (group commit: updates between syncs share one fsync and
//! can be lost together in a crash), `Never` leaves syncing to the
//! WAL-before-data rule and checkpoints. Whatever the policy, the buffer
//! pool's [`WalHook::flush_to`] calls force the log down *before* any
//! page write-back, so the store never runs ahead of the durable log.

use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cor_obs::{flight, wait};
use cor_pagestore::wal::{Lsn, WalHook, NO_LSN};
use cor_pagestore::{DiskError, PageBuf, PageId, PAGE_SIZE};

use crate::record::{
    decode_stream, frame_delta, frame_image, Record, RecordBody, KIND_CHECKPOINT, KIND_DELTA,
    KIND_IMAGE, MAX_CHECKPOINT_DPT,
};
use crate::store::LogStore;

/// When the log syncs appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every record: nothing acknowledged is ever lost.
    #[default]
    Always,
    /// Group commit: sync after every `n` records. Up to `n - 1`
    /// acknowledged records can be lost in a crash; pages are still
    /// never ahead of the log (WAL-before-data syncs on demand).
    EveryN(u32),
    /// Sync only when WAL-before-data or a checkpoint demands it.
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
    /// Full-page-image records among the appends.
    pub images: u64,
    /// Byte-range delta records among the appends.
    pub deltas: u64,
    /// Checkpoint records among the appends.
    pub checkpoints: u64,
    /// Highest LSN appended.
    pub appended_lsn: Lsn,
    /// Highest LSN known durable.
    pub durable_lsn: Lsn,
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
    /// Highest LSN appended to the store (volatile until synced).
    appended_lsn: Lsn,
    /// Highest LSN known durable.
    durable_lsn: Lsn,
    /// The full-page-write epoch: each page imaged since the last
    /// checkpoint began, mapped to the LSN of that image. Cleared when a
    /// checkpoint reads its begin LSN. A page *not* in this map logs a
    /// full image on its next write.
    imaged: HashMap<PageId, Lsn>,
    /// Bytes appended to the active segment since the last rotation.
    active_seg_bytes: usize,
    /// Appends since the last sync, for [`FsyncPolicy::EveryN`].
    appends_since_sync: u32,
    /// Set when an append or sync against the store failed. A failed
    /// append may have left garbage bytes in the active segment; any
    /// record appended after that garbage would be invisible to recovery
    /// (decoding stops at the first bad frame), so the log refuses all
    /// further appends instead of silently dropping acknowledged work.
    poisoned: bool,
    /// The frame being appended: cleared per record, its capacity kept,
    /// so an append allocates nothing once it has seen its largest record.
    encode_buf: Vec<u8>,
}

/// The write-ahead log. Cheap to share: `Arc<Wal>` implements
/// [`WalHook`] and plugs into `BufferPoolBuilder::wal`.
pub struct Wal {
    store: Arc<dyn LogStore>,
    config: WalConfig,
    inner: Mutex<WalInner>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    images: AtomicU64,
    deltas: AtomicU64,
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
                encode_buf: Vec::new(),
            }),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            images: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        }
    }

    /// Attach to a store that already holds records (e.g. after
    /// recovery): scans for the highest LSN, continues numbering after
    /// it, and rotates to a fresh segment so new records never share a
    /// segment with a possibly-torn tail. The epoch's image map starts
    /// empty, which is safe — it only means the first write to each page
    /// logs a full image again.
    pub fn attach(store: Arc<dyn LogStore>, config: WalConfig) -> io::Result<Self> {
        let mut max_lsn = NO_LSN;
        for seg in store.read_segments()? {
            for rec in decode_stream(&seg).records {
                max_lsn = max_lsn.max(rec.lsn);
            }
        }
        let wal = Self::new(Arc::clone(&store), config);
        if max_lsn != NO_LSN {
            {
                let mut inner = wal.inner.lock();
                inner.next_lsn = max_lsn + 1;
                inner.appended_lsn = max_lsn;
                inner.durable_lsn = max_lsn;
            }
            store.rotate(max_lsn + 1)?;
        }
        Ok(wal)
    }

    /// The backing store (recovery reads it directly).
    pub fn store(&self) -> &Arc<dyn LogStore> {
        &self.store
    }

    /// Current counter values.
    pub fn stats(&self) -> WalStatsSnapshot {
        let inner = self.inner.lock();
        WalStatsSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            images: self.images.load(Ordering::Relaxed),
            deltas: self.deltas.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            appended_lsn: inner.appended_lsn,
            durable_lsn: inner.durable_lsn,
        }
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.lock().durable_lsn
    }

    /// Highest LSN appended (volatile until synced).
    pub fn appended_lsn(&self) -> Lsn {
        self.inner.lock().appended_lsn
    }

    fn io_err(&self, op: &'static str, e: io::Error) -> DiskError {
        DiskError::io(op, self.store.describe(), e)
    }

    /// Acquire the log mutex on an append/flush path — the group-commit
    /// queue: writers serialize here and inherit each other's fsyncs.
    /// The acquisition time feeds the wait profile (`wal_lock` class)
    /// when profiling is on; one relaxed load otherwise.
    #[inline]
    fn lock_queue(&self) -> MutexGuard<'_, WalInner> {
        wait::timed(wait::WaitClass::WalLock, || self.inner.lock())
    }

    fn sync_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        if inner.durable_lsn == inner.appended_lsn {
            inner.appends_since_sync = 0;
            return Ok(());
        }
        if let Err(e) = wait::timed(wait::WaitClass::WalFsync, || self.store.sync()) {
            // After a failed fsync the kernel may have dropped the dirty
            // pages it could not write; a later "successful" sync would
            // prove nothing about these bytes. Fail fast from here on.
            inner.poisoned = true;
            flight::record(
                flight::FlightKind::WalPoison,
                u64::from(inner.appended_lsn),
                0,
                0,
            );
            return Err(e);
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        inner.durable_lsn = inner.appended_lsn;
        inner.appends_since_sync = 0;
        Ok(())
    }

    /// Append one record, assigning the next LSN: `encode(out, lsn)`
    /// frames it into the log's reused buffer in one pass. Rotates the
    /// segment first when the active one is over size, and applies the
    /// group-commit policy afterwards. `kind` is the record kind, for the
    /// flight recorder.
    fn append_record(
        &self,
        inner: &mut WalInner,
        kind: u8,
        encode: impl FnOnce(&mut Vec<u8>, Lsn),
    ) -> io::Result<Lsn> {
        if inner.poisoned {
            return Err(io::Error::other(
                "write-ahead log poisoned by an earlier append/sync failure",
            ));
        }
        if inner.active_seg_bytes >= self.config.segment_bytes {
            // Close the segment durably, then start a fresh one named by
            // the LSN this record will carry.
            self.sync_locked(inner)?;
            self.store.rotate(inner.next_lsn)?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed); // rotate syncs the old segment
            inner.active_seg_bytes = 0;
        }
        let lsn = inner.next_lsn;
        inner.encode_buf.clear();
        encode(&mut inner.encode_buf, lsn);
        let len = inner.encode_buf.len();
        if let Err(e) = self.store.append(&inner.encode_buf) {
            // The record may have landed partially: everything appended
            // after it would sit behind a bad frame and be dropped at
            // recovery, so no further appends may be acknowledged.
            inner.poisoned = true;
            flight::record(flight::FlightKind::WalPoison, u64::from(lsn), 0, 0);
            return Err(e);
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
        match self.config.fsync {
            FsyncPolicy::Always => self.sync_locked(inner)?,
            FsyncPolicy::EveryN(n) => {
                if inner.appends_since_sync >= n {
                    self.sync_locked(inner)?;
                }
            }
            FsyncPolicy::Never => {}
        }
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

/// Compute the smallest contiguous byte range where `before` and
/// `after` differ; `None` when identical. Compares 8 bytes at a time, then
/// narrows to the byte inside the first and last differing words: in a
/// little-endian word the lowest set byte of the XOR is the first
/// differing byte, the highest set byte the last.
fn diff_range(before: &PageBuf, after: &PageBuf) -> Option<(usize, usize)> {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mut differing = before
        .chunks_exact(8)
        .zip(after.chunks_exact(8))
        .map(|(a, b)| word(a) ^ word(b))
        .enumerate()
        .filter(|&(_, x)| x != 0);
    let (first, first_x) = differing.next()?;
    let (last, last_x) = differing.next_back().unwrap_or((first, first_x));
    let start = 8 * first + first_x.trailing_zeros() as usize / 8;
    let end = 8 * last + 8 - last_x.leading_zeros() as usize / 8;
    Some((start, end))
}

impl WalHook for Wal {
    fn log_page_write(
        &self,
        pid: PageId,
        before: &PageBuf,
        after: &PageBuf,
    ) -> Result<(Lsn, Lsn), DiskError> {
        let mut inner = self.lock_queue();
        // First write since the checkpoint: full image. Otherwise a delta
        // against the epoch's image — unless the changed range is so
        // large an image is no bigger.
        let delta = match inner.imaged.get(&pid) {
            None => None,
            Some(&image_lsn) => match diff_range(before, after) {
                // Nothing changed; nothing to log.
                None => return Ok((inner.appended_lsn.max(1), image_lsn)),
                Some((s, e)) => (e - s + 8 < 4 + PAGE_SIZE).then_some((s, e, image_lsn)),
            },
        };
        // The image map and counters move only once the record is in the
        // store: marking the page imaged on a failed append would let the
        // next write log a delta against a baseline the log never got.
        let lsn = match delta {
            Some((s, e, _)) => self.append_record(&mut inner, KIND_DELTA, |out, lsn| {
                frame_delta(out, lsn, pid, s as u16, &after[s..e])
            }),
            None => self.append_record(&mut inner, KIND_IMAGE, |out, lsn| {
                frame_image(out, lsn, pid, after)
            }),
        }
        .map_err(|e| self.io_err("wal append", e))?;
        match delta {
            Some((_, _, image_lsn)) => {
                self.deltas.fetch_add(1, Ordering::Relaxed);
                Ok((lsn, image_lsn))
            }
            None => {
                inner.imaged.insert(pid, lsn);
                self.images.fetch_add(1, Ordering::Relaxed);
                Ok((lsn, lsn))
            }
        }
    }

    fn log_page_image(&self, pid: PageId, image: &PageBuf) -> Result<Lsn, DiskError> {
        let mut inner = self.lock_queue();
        let lsn = self
            .append_record(&mut inner, KIND_IMAGE, |out, lsn| {
                frame_image(out, lsn, pid, image)
            })
            .map_err(|e| self.io_err("wal append", e))?;
        inner.imaged.insert(pid, lsn);
        self.images.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    fn flush_to(&self, lsn: Lsn) -> Result<(), DiskError> {
        let mut inner = self.lock_queue();
        if inner.durable_lsn >= lsn {
            return Ok(());
        }
        self.sync_locked(&mut inner)
            .map_err(|e| self.io_err("wal sync", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemLogStore;
    use cor_pagestore::BufferPool;
    use proptest::prelude::*;

    fn buf_with(b: u8) -> PageBuf {
        [b; PAGE_SIZE]
    }

    /// The reference model for [`diff_range`]: one byte at a time.
    fn diff_range_bytewise(before: &PageBuf, after: &PageBuf) -> Option<(usize, usize)> {
        let start = (0..PAGE_SIZE).find(|&i| before[i] != after[i])?;
        let end = (0..PAGE_SIZE).rev().find(|&i| before[i] != after[i])? + 1;
        Some((start, end))
    }

    proptest! {
        /// Word-at-a-time `diff_range` equals the byte-wise form on random
        /// page pairs: identical pages, a few edits of any length at any
        /// offset (an edit may rewrite a byte to its old value), and pages
        /// that differ everywhere.
        #[test]
        fn diff_range_matches_the_byte_loop(
            fill in any::<u8>(),
            edits in proptest::collection::vec((0..PAGE_SIZE, 1usize..24, any::<u8>()), 0..4),
            whole in 0u8..16,
        ) {
            let before: PageBuf = std::array::from_fn(|i| (i as u8).wrapping_mul(fill | 1));
            let mut after = if whole == 0 { buf_with(fill) } else { before };
            for &(at, len, val) in &edits {
                after[at..(at + len).min(PAGE_SIZE)].fill(val);
            }
            prop_assert_eq!(diff_range(&before, &after), diff_range_bytewise(&before, &after));
        }
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
        assert_eq!((s.images, s.deltas), (1, 1));
        // Decode what landed.
        let segs = store.read_segments().unwrap();
        let recs = decode_stream(&segs[0]).records;
        assert!(matches!(recs[0].body, RecordBody::PageImage { pid: 3, .. }));
        match &recs[1].body {
            RecordBody::PageDelta { pid, offset, bytes } => {
                assert_eq!((*pid, *offset), (3, 200));
                assert_eq!(bytes, &vec![9; 4]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn write_back_keeps_the_epoch_image_and_a_checkpoint_ends_it() {
        let wal = Arc::new(Wal::new(Arc::new(MemLogStore::new()), WalConfig::default()));
        let pool = BufferPool::builder().capacity(4).wal(wal.clone()).build();
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
        assert_eq!((s.images, s.deltas, s.checkpoints), (2, 2, 1));
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
        assert_eq!((s.images, s.deltas), (2, 0));
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
        assert_eq!((s.images, s.deltas), (2, 0));
    }

    #[test]
    fn fsync_policies_batch_syncs() {
        let run = |fsync: FsyncPolicy, writes: u32| {
            let wal = Wal::new(
                Arc::new(MemLogStore::new()),
                WalConfig {
                    fsync,
                    ..WalConfig::default()
                },
            );
            let zero = buf_with(0);
            for i in 0..writes {
                let mut v = zero;
                v[i as usize] = 1;
                wal.log_page_write(i, &zero, &v).unwrap();
            }
            wal.stats()
        };
        assert_eq!(run(FsyncPolicy::Always, 10).fsyncs, 10);
        let grouped = run(FsyncPolicy::EveryN(4), 10);
        assert_eq!(grouped.fsyncs, 2, "10 appends / batch of 4 = 2 syncs");
        assert!(grouped.durable_lsn < grouped.appended_lsn);
        let never = run(FsyncPolicy::Never, 10);
        assert_eq!(never.fsyncs, 0);
        assert_eq!(never.durable_lsn, NO_LSN);
    }

    #[test]
    fn flush_to_is_idempotent_and_monotone() {
        let wal = Wal::new(
            Arc::new(MemLogStore::new()),
            WalConfig {
                fsync: FsyncPolicy::Never,
                ..WalConfig::default()
            },
        );
        let zero = buf_with(0);
        let mut v = zero;
        v[9] = 9;
        let (lsn, _) = wal.log_page_write(2, &zero, &v).unwrap();
        assert_eq!(wal.durable_lsn(), NO_LSN);
        wal.flush_to(lsn).unwrap();
        assert_eq!(wal.durable_lsn(), lsn);
        let fsyncs = wal.stats().fsyncs;
        wal.flush_to(lsn).unwrap(); // already durable: no extra sync
        assert_eq!(wal.stats().fsyncs, fsyncs);
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
            let mut v = zero;
            v[0] = pid as u8 + 1;
            wal.log_page_write(pid, &zero, &v).unwrap(); // an image: first write
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

    /// A store that can be told to fail its next append, then heals.
    struct FlakyStore {
        inner: MemLogStore,
        fail_next_append: std::sync::atomic::AtomicBool,
    }

    impl FlakyStore {
        fn new() -> Self {
            FlakyStore {
                inner: MemLogStore::new(),
                fail_next_append: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl LogStore for FlakyStore {
        fn append(&self, bytes: &[u8]) -> io::Result<()> {
            if self.fail_next_append.swap(false, Ordering::SeqCst) {
                return Err(io::Error::other("injected append failure"));
            }
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
        fn segment_count(&self) -> usize {
            self.inner.segment_count()
        }
        fn describe(&self) -> String {
            "flaky-log".to_string()
        }
    }

    #[test]
    fn append_failure_poisons_the_log_and_skips_the_imaged_set() {
        let store = Arc::new(FlakyStore::new());
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
        assert_eq!((s.appends, s.images, s.deltas), (1, 1, 0));
    }

    #[test]
    fn failed_image_append_does_not_move_the_counters() {
        let store = Arc::new(FlakyStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        store.fail_next_append.store(true, Ordering::SeqCst);
        let zero = buf_with(0);
        assert!(wal.log_page_image(6, &zero).is_err());
        let s = wal.stats();
        assert_eq!((s.appends, s.images, s.appended_lsn), (0, 0, NO_LSN));
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
