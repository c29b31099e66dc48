//! Sharded buffer pool.
//!
//! The paper fixes "a main memory buffer size of 100 INGRES data pages"
//! for every experiment; [`DEFAULT_POOL_PAGES`] mirrors that. All access
//! methods go through the pool, and every transfer between the pool and the
//! disk manager is counted in the shared [`IoStats`] — a read when a page is
//! faulted in, a write when a dirty page is evicted or flushed. That is the
//! exact quantity the paper reports as "average I/O".
//!
//! Access is closure-scoped: [`BufferPool::read`] and [`BufferPool::write`]
//! pin the page for the duration of the closure. Closures may nest (a B-tree
//! descent pins a parent while reading a child); pinning the *same* page for
//! write while it is already pinned deadlocks, and no access method in this
//! workspace does so.
//!
//! # Concurrency
//!
//! The pool is lock-striped: frames are partitioned into `shards` stripes
//! and a page id is deterministically homed to one stripe, so operations
//! on pages of different stripes never contend on a lock. With
//! `shards = 1` (the default) the pool makes exactly the same eviction
//! decisions, in the same order, as the original unsharded pool — the
//! paper's single-threaded I/O counts are preserved bit-for-bit. Larger
//! shard counts trade that global LRU order for parallelism: each shard
//! runs the replacement policy over its own frames, like per-stripe LRU
//! in a production cache. [`IoStats`] counters are atomic, so totals stay
//! exact under any thread count.

use crate::disk::{DiskError, DiskManager, MemDisk};
use crate::page::{PageBuf, PageId, PageMut, PageView};
use crate::policy::ReplacementPolicy;
use crate::shard::Shard;
use crate::stats::IoStats;
use crate::telemetry::ShardTelemetrySnapshot;
use crate::wal::{Lsn, WalHook, NO_LSN};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Buffer size used throughout the paper's experiments (100 pages).
pub const DEFAULT_POOL_PAGES: usize = 100;

/// Errors from buffer-pool operations.
#[derive(Debug)]
pub enum BufferError {
    /// Every candidate frame is pinned; no victim is available.
    NoFreeFrames {
        /// The page that needed a frame.
        pid: PageId,
        /// Index of the shard the page is homed to.
        shard: usize,
        /// How many frames of the page's shard were pinned.
        pinned: usize,
        /// The shard's hit ratio at failure time, when the pool was built
        /// with telemetry enabled.
        hit_ratio: Option<f64>,
        /// Total nanoseconds the shard stalled waiting for a concurrent
        /// unpin before giving up.
        waited_ns: u64,
    },
    /// A page was freed while pinned.
    PagePinned(PageId),
    /// The underlying disk manager failed.
    Disk(DiskError),
}

impl std::fmt::Display for BufferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferError::NoFreeFrames {
                pid,
                shard,
                pinned,
                hit_ratio,
                waited_ns,
            } => {
                write!(
                    f,
                    "no frame for page {pid} in shard {shard}: all {pinned} candidate frames are pinned"
                )?;
                if let Some(ratio) = hit_ratio {
                    write!(f, " (shard hit ratio {:.1}%)", ratio * 100.0)?;
                }
                write!(f, " after waiting {:.1}ms", *waited_ns as f64 / 1e6)?;
                Ok(())
            }
            BufferError::PagePinned(p) => write!(f, "page {p} freed while pinned"),
            BufferError::Disk(e) => write!(f, "disk error: {e}"),
        }
    }
}

impl std::error::Error for BufferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BufferError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for BufferError {
    fn from(e: DiskError) -> Self {
        BufferError::Disk(e)
    }
}

/// Configures and creates a [`BufferPool`]; obtained from
/// [`BufferPool::builder`].
///
/// ```
/// use cor_pagestore::{BufferPool, ReplacementPolicy};
///
/// let pool = BufferPool::builder()
///     .capacity(100)
///     .shards(4)
///     .policy(ReplacementPolicy::Sieve)
///     .build();
/// assert_eq!(pool.capacity(), 100);
/// assert_eq!(pool.shards(), 4);
/// ```
pub struct BufferPoolBuilder {
    disk: Option<Box<dyn DiskManager>>,
    capacity: usize,
    policy: ReplacementPolicy,
    shards: usize,
    stats: Option<Arc<IoStats>>,
    telemetry: bool,
    wal: Option<Arc<dyn WalHook>>,
}

impl BufferPoolBuilder {
    /// Total number of frames across all shards (default
    /// [`DEFAULT_POOL_PAGES`]). A ceiling, not an allocation: a frame's
    /// page bytes are allocated at its first load and kept after
    /// eviction, so the pool's resident page memory is
    /// `min(capacity, pages held at once) × PAGE_SIZE`.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Replacement policy (default LRU).
    pub fn policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of lock stripes (default 1, which reproduces the paper's
    /// single global LRU exactly).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// I/O counters to aggregate into (default: fresh [`IoStats`]).
    pub fn stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Enable per-shard behaviour telemetry (hits, misses, evictions,
    /// write-backs, pin waits; default off). A disabled pool allocates no
    /// counters and performs no telemetry work at all — [`IoStats`] totals
    /// are identical either way.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Disk manager backing the pool (default: a fresh in-memory
    /// [`MemDisk`]).
    pub fn disk(mut self, disk: Box<dyn DiskManager>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Attach a write-ahead log from the first page on (default: none).
    /// With a hook attached the pool logs every page mutation — except
    /// those of query temporaries ([`BufferPool::write_temp`]) — stamps
    /// page LSNs, and enforces WAL-before-data on every write-back (see
    /// [`crate::wal`]). Without one, every hot path is byte-for-byte the
    /// historical code: no pre-image copies, no stamping, identical
    /// [`IoStats`]. Every pool in this workspace is built without one
    /// and given it by [`BufferPool::attach_wal`]; the frozen
    /// `benchmark/` harness's pool probe is this setter's last reader.
    pub fn wal(mut self, wal: Arc<dyn WalHook>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Build the pool.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero, `shards` is zero, or `capacity < shards`
    /// (every shard needs at least one frame).
    pub fn build(self) -> BufferPool {
        assert!(self.capacity > 0, "buffer pool needs at least one frame");
        assert!(self.shards > 0, "buffer pool needs at least one shard");
        assert!(
            self.capacity >= self.shards,
            "capacity {} cannot be split over {} shards",
            self.capacity,
            self.shards
        );
        let base = self.capacity / self.shards;
        let extra = self.capacity % self.shards;
        let shards: Vec<Shard> = (0..self.shards)
            .map(|i| Shard::new(base + usize::from(i < extra), i, self.telemetry))
            .collect();
        let disk: Arc<dyn DiskManager> =
            Arc::from(self.disk.unwrap_or_else(|| Box::new(MemDisk::new())));
        let stats = self.stats.unwrap_or_default();
        BufferPool {
            next_ticket: AtomicU32::new(disk.num_pages()),
            disk,
            stats,
            policy: self.policy,
            shards,
            wal: self.wal.map_or_else(OnceLock::new, OnceLock::from),
        }
    }
}

/// A bounded page cache with pluggable replacement, lock striping, and
/// I/O accounting.
///
/// ```
/// use cor_pagestore::BufferPool;
///
/// let pool = BufferPool::builder().capacity(100).build();
/// let pid = pool.allocate_page().unwrap();
/// pool.write(pid, |mut page| {
///     page.init();
///     page.insert(b"a tuple").unwrap();
/// })
/// .unwrap();
/// let n = pool.read(pid, |page| page.live_count()).unwrap();
/// assert_eq!(n, 1);
/// assert_eq!(pool.stats().reads(), 0); // everything stayed resident
/// ```
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    stats: Arc<IoStats>,
    policy: ReplacementPolicy,
    shards: Vec<Shard>,
    /// Set once, at construction or by [`Self::attach_wal`].
    wal: OnceLock<Arc<dyn WalHook>>,
    /// The page id the next allocation would receive if no page had ever
    /// been recycled; see [`Self::next_page_id`].
    next_ticket: AtomicU32,
}

impl BufferPool {
    /// Start configuring a pool.
    pub fn builder() -> BufferPoolBuilder {
        BufferPoolBuilder {
            disk: None,
            capacity: DEFAULT_POOL_PAGES,
            policy: ReplacementPolicy::default(),
            shards: 1,
            stats: None,
            telemetry: false,
            wal: None,
        }
    }

    /// The attached WAL hook, if any.
    fn wal_ref(&self) -> Option<&dyn WalHook> {
        self.wal.get().map(|w| w.as_ref())
    }

    /// Start logging on a pool built without a log: write every dirty
    /// page back, [`sync`](DiskManager::sync) the store once, then
    /// attach `wal`. From here on every write logs as on a pool built
    /// with [`BufferPoolBuilder::wal`].
    ///
    /// This is how a store is bulk-loaded: its pages are built unlogged,
    /// so the log starts at the store's first logged change instead of
    /// holding an image of every page the build wrote. Redo needs none
    /// of the build: its pages are on the store, synced, before the
    /// first record, and each still carries [`NO_LSN`], so its first
    /// logged write in any full-page-write epoch is a full image. A
    /// crash before this returns leaves a store no log describes. It is
    /// also how a reopened store's pool gets its log: the sync puts
    /// recovery's redo writes on the medium before the log takes a
    /// record.
    ///
    /// # Panics
    ///
    /// If the pool already has a log: attaching twice is a programming
    /// error.
    pub fn attach_wal(&self, wal: Arc<dyn WalHook>) -> Result<(), BufferError> {
        self.flush_all()?;
        self.disk.sync()?;
        assert!(self.wal.set(wal).is_ok(), "the pool already has a log");
        Ok(())
    }

    /// The configured replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Total number of frames across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(Shard::capacity).sum()
    }

    /// Number of lock stripes.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard behaviour counters, one snapshot per stripe in index
    /// order; `None` when the pool was built without
    /// [`BufferPoolBuilder::telemetry`].
    pub fn telemetry(&self) -> Option<Vec<ShardTelemetrySnapshot>> {
        self.shards
            .iter()
            .map(Shard::telemetry_snapshot)
            .collect::<Option<Vec<_>>>()
    }

    /// Number of pages in the underlying store.
    pub fn num_pages(&self) -> u32 {
        self.disk.num_pages()
    }

    /// The shard a page id is homed to. With one shard this is free of
    /// arithmetic, keeping the single-shard pool on the unsharded code
    /// path.
    fn shard_of(&self, pid: PageId) -> &Shard {
        &self.shards[self.shard_index_of(pid)]
    }

    /// Index of the stripe a page id is homed to.
    pub(crate) fn shard_index_of(&self, pid: PageId) -> usize {
        let n = self.shards.len();
        if n == 1 {
            0
        } else {
            // Multiply-shift mixes the low bits of sequentially
            // allocated page ids before the modulo.
            let h = (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            (h % n as u64) as usize
        }
    }

    /// Allocate a zeroed page — recycling a previously freed page when
    /// the stripe this allocation is due on has one, extending the store
    /// otherwise. The page is brought into the pool dirty without a
    /// physical read (it has no prior contents worth fetching).
    pub fn allocate_page(&self) -> Result<PageId, BufferError> {
        self.allocate(self.wal_ref())
    }

    /// [`allocate_page`](Self::allocate_page) for a query temporary: the
    /// zeroed page is not imaged into the log. Pair with
    /// [`write_temp`](Self::write_temp); see there for the contract.
    pub fn allocate_temp_page(&self) -> Result<PageId, BufferError> {
        self.allocate(None)
    }

    /// Pick the id for the next allocation: a recycled one when the
    /// stripe this allocation is due on has one, a fresh one otherwise.
    ///
    /// Which stripe an allocation loads must not depend on whether ids
    /// are recycled. A query that frees its temporaries would otherwise
    /// get the same few ids back every time and pile every temporary onto
    /// their home stripes, evicting live pages there while other stripes
    /// idle. So the pool's k-th allocation is homed where the k-th
    /// never-recycled id would be: an allocate-and-free loop loads the
    /// stripes exactly like an allocate-and-keep loop, frame for frame
    /// and read for read. Fresh ids that hash elsewhere while the store
    /// is being extended go straight to their home free list, so the
    /// store outgrows its live pages by at most a few pages per stripe.
    /// With one stripe this is "recycle if any, else extend".
    fn next_page_id(&self) -> Result<PageId, BufferError> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let home = self.shard_index_of(ticket);
        if let Some(pid) = self.shards[home].pop_free() {
            return Ok(pid);
        }
        loop {
            let pid = self.disk.allocate_page()?;
            let s = self.shard_index_of(pid);
            if s == home {
                return Ok(pid);
            }
            self.shards[s].free_page(pid)?;
        }
    }

    /// Allocate a page, imaging it into `log` when one is given.
    fn allocate(&self, log: Option<&dyn WalHook>) -> Result<PageId, BufferError> {
        let pid = self.next_page_id()?;
        self.stats.record_allocation();
        let shard = self.shard_of(pid);
        let idx = match shard.allocate_into(
            pid,
            self.policy,
            self.disk.as_ref(),
            &self.stats,
            self.wal_ref(),
        ) {
            Ok(idx) => idx,
            // No frame (a pinned shard, or a victim whose write-back
            // failed): the id is neither resident nor handed out, so it
            // goes back to its home free list instead of leaking.
            Err(e) => return shard.free_page(pid).and(Err(e)),
        };
        // Log the zeroed page as a full image: the frame is dirty with no
        // log record behind it, and a recycled page id may carry stale
        // bytes in the store that redo must be able to overwrite.
        if let Some(wal) = log {
            let mut st = shard.frame(idx).state.write();
            match wal.log_page_image(pid, &st.data) {
                Ok(lsn) => {
                    PageMut::new(&mut st.data[..]).set_lsn(lsn);
                    st.rec_lsn = lsn;
                }
                Err(e) => {
                    drop(st);
                    shard.unpin(idx);
                    return Err(e.into());
                }
            }
        }
        shard.unpin(idx);
        Ok(pid)
    }

    /// Read page `pid` under the closure. Counts a physical read iff the
    /// page was not resident.
    pub fn read<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(PageView<'_>) -> R,
    ) -> Result<R, BufferError> {
        let shard = self.shard_of(pid);
        let idx = shard.pin(
            pid,
            self.policy,
            self.disk.as_ref(),
            &self.stats,
            self.wal_ref(),
        )?;
        let result = {
            let st = shard.frame(idx).state.read();
            f(PageView::new(&st.data[..]))
        };
        shard.unpin(idx);
        Ok(result)
    }

    /// Mutate page `pid` under the closure; the page is marked dirty.
    /// With a log attached, only a closure that changed a byte dirties
    /// it: one that changed nothing leaves the frame as it was. Counts a
    /// physical read iff the page was not resident; the write is counted
    /// when the dirty page is later evicted or flushed.
    pub fn write<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(PageMut<'_>) -> R,
    ) -> Result<R, BufferError> {
        self.write_logging(pid, self.wal_ref(), f)
    }

    /// [`write`](Self::write) for a page of a query temporary (one from
    /// [`allocate_temp_page`](Self::allocate_temp_page)): same pinning and
    /// I/O accounting, but the mutation is never logged — no pre-image
    /// copy, no record, no LSN stamp — and the frame is dirtied whatever
    /// the closure did (a caller that may change nothing tests first). The page LSN stays
    /// [`NO_LSN`] and the frame carries no recLSN, so the page never
    /// enters a checkpoint's dirty-page table and its write-back waits
    /// on no log flush. Recovery neither restores nor needs the bytes: a
    /// temporary does not outlive its query.
    ///
    /// A page belongs to one class from allocation to free. Calling this
    /// on a logged page would leave redo unable to reproduce it (debug
    /// builds assert the page carries no LSN); calling [`write`](Self::write)
    /// on a temporary's page merely logs bytes nobody will want.
    pub fn write_temp<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(PageMut<'_>) -> R,
    ) -> Result<R, BufferError> {
        self.write_logging(pid, None, f)
    }

    /// Mutate page `pid`, logging the change to `log` when one is given.
    fn write_logging<R>(
        &self,
        pid: PageId,
        log: Option<&dyn WalHook>,
        f: impl FnOnce(PageMut<'_>) -> R,
    ) -> Result<R, BufferError> {
        let shard = self.shard_of(pid);
        let idx = shard.pin(
            pid,
            self.policy,
            self.disk.as_ref(),
            &self.stats,
            self.wal_ref(),
        )?;
        let result = match log {
            None => {
                let mut st = shard.frame(idx).state.write();
                debug_assert!(
                    self.wal_ref().is_none() || PageView::new(&st.data[..]).lsn() == NO_LSN,
                    "write_temp on logged page {pid}"
                );
                st.dirty = true;
                f(PageMut::new(&mut st.data[..]))
            }
            Some(wal) => {
                // Capture the pre-image, run the closure, log the change,
                // then stamp the record's LSN into the page. Stamping
                // happens *after* the closure (init() zeroes the LSN
                // word) and after logging (the logged after-image must
                // match what redo reconstructs: redo re-stamps rec.lsn
                // the same way). A closure that changed no byte leaves
                // the frame as it was: clean stays clean, and a dirty
                // frame keeps its recLSN.
                let mut st = shard.frame(idx).state.write();
                let pre: PageBuf = *st.data;
                let r = f(PageMut::new(&mut st.data[..]));
                if pre[..] != st.data[..] {
                    match wal.log_page_write(pid, &pre, &st.data) {
                        Ok((lsn, image_lsn)) => {
                            PageMut::new(&mut st.data[..]).set_lsn(lsn);
                            st.dirty = true;
                            // A clean frame's recLSN is the page's epoch
                            // image, not this record: a torn write-back
                            // of the page can only be repaired by redo
                            // from that image, so every checkpoint's
                            // horizon must stay at or below it.
                            if st.rec_lsn == NO_LSN {
                                st.rec_lsn = image_lsn;
                            }
                        }
                        Err(e) => {
                            // The mutation never made the log, so it must
                            // not stay in the pool either: a frame holding
                            // unlogged bytes would make every later delta
                            // unreconstructable at redo. Restore the
                            // pre-image, which the log fully describes.
                            *st.data = pre;
                            drop(st);
                            shard.unpin(idx);
                            return Err(e.into());
                        }
                    }
                }
                r
            }
        };
        shard.unpin(idx);
        Ok(result)
    }

    /// Return a page to its home shard's free list for reuse by a later
    /// [`Self::allocate_page`]. The resident copy (if any) is discarded
    /// without a write-back — freed contents are garbage by definition.
    /// The free list is in-memory state, like the access methods' file
    /// metadata; a restart simply stops recycling (the pages leak in the
    /// store until it is rebuilt).
    pub fn free_page(&self, pid: PageId) -> Result<(), BufferError> {
        self.shard_of(pid).free_page(pid)
    }

    /// Number of pages currently on the free lists.
    pub fn free_pages(&self) -> usize {
        self.shards.iter().map(Shard::free_pages).sum()
    }

    /// The page ids currently on the free lists, sorted. Freed pages hold
    /// garbage by definition, so crash-recovery verification excludes
    /// them from byte comparisons.
    pub fn free_page_ids(&self) -> Vec<PageId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            shard.collect_free(&mut ids);
        }
        ids.sort_unstable();
        ids
    }

    /// Write one page back to disk if it is resident and dirty (counting
    /// the write). Returns whether a write happened. Used to materialize
    /// temporary relations: the paper charges BFS for "forming the
    /// temporary relation" even when it is small enough to fit in the
    /// buffer.
    pub fn flush_page(&self, pid: PageId) -> Result<bool, BufferError> {
        self.shard_of(pid)
            .flush_page(pid, self.disk.as_ref(), &self.stats, self.wal_ref())
    }

    /// Write all dirty resident pages back to disk (counting the writes).
    pub fn flush_all(&self) -> Result<(), BufferError> {
        for shard in &self.shards {
            shard.flush_all(self.disk.as_ref(), &self.stats, self.wal_ref())?;
        }
        Ok(())
    }

    /// Flush and then forget every resident page, returning the pool to a
    /// cold state. Experiments call this so each strategy run starts with an
    /// empty buffer, as a fresh INGRES session would.
    pub fn flush_and_clear(&self) -> Result<(), BufferError> {
        for shard in &self.shards {
            shard.flush_and_clear(self.disk.as_ref(), &self.stats, self.wal_ref())?;
        }
        Ok(())
    }

    /// The dirty-page table: `(page_id, recLSN)` for every dirty resident
    /// page, where recLSN is the LSN of the page's full-page-write image
    /// in force when the change that dirtied the clean frame was logged
    /// (at or below that change's own record). Captured into checkpoint
    /// records so recovery knows how far back redo must start. Pages
    /// dirtied without a WAL attached carry no recLSN and are omitted.
    pub fn dirty_page_table(&self) -> Vec<(PageId, Lsn)> {
        let mut dpt = Vec::new();
        for shard in &self.shards {
            shard.collect_dirty(&mut dpt);
        }
        dpt.sort_unstable();
        dpt
    }

    /// Number of pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(Shard::resident_pages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::builder().capacity(capacity).build()
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let p = pool(4);
        let pid = p.allocate_page().unwrap();
        p.write(pid, |mut pg| {
            pg.init();
            pg.insert(b"payload").unwrap();
        })
        .unwrap();
        let rec = p.read(pid, |pg| pg.record(0).map(|r| r.to_vec())).unwrap();
        assert_eq!(rec.unwrap(), b"payload");
        // Everything stayed resident: no physical reads.
        assert_eq!(p.stats().reads(), 0);
    }

    #[test]
    fn eviction_counts_io() {
        let p = pool(2);
        let pids: Vec<_> = (0..4).map(|_| p.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.write(pid, |mut pg| {
                pg.init();
                pg.insert(&[i as u8; 8]).unwrap();
            })
            .unwrap();
        }
        // Capacity 2 < 4 pages: allocating/writing 4 dirty pages evicted at
        // least two dirty pages (each one physical write).
        assert!(p.stats().writes() >= 2, "writes = {}", p.stats().writes());
        // Touching the oldest page again faults it back in: a physical read.
        let before = p.stats().reads();
        let rec = p
            .read(pids[0], |pg| pg.record(0).map(|r| r.to_vec()))
            .unwrap();
        assert_eq!(rec.unwrap(), vec![0u8; 8]);
        assert_eq!(p.stats().reads(), before + 1);
    }

    #[test]
    fn resident_page_rereads_are_free() {
        let p = pool(4);
        let pid = p.allocate_page().unwrap();
        p.write(pid, |mut pg| pg.init()).unwrap();
        let before = p.stats().snapshot();
        for _ in 0..10 {
            p.read(pid, |pg| pg.slot_count()).unwrap();
        }
        let delta = p.stats().snapshot().since(&before);
        assert_eq!(delta.total(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pool(2);
        let a = p.allocate_page().unwrap();
        let b = p.allocate_page().unwrap();
        let c = p.allocate_page().unwrap(); // evicts a (LRU)
                                            // b and c are resident; touching b must be free.
        let before = p.stats().reads();
        p.read(b, |_| ()).unwrap();
        p.read(c, |_| ()).unwrap();
        assert_eq!(p.stats().reads(), before);
        // a was evicted.
        p.read(a, |_| ()).unwrap();
        assert_eq!(p.stats().reads(), before + 1);
    }

    #[test]
    fn nested_reads_of_distinct_pages_work() {
        let p = pool(4);
        let a = p.allocate_page().unwrap();
        let b = p.allocate_page().unwrap();
        p.write(a, |mut pg| pg.init()).unwrap();
        p.write(b, |mut pg| pg.init()).unwrap();
        let n = p
            .read(a, |pa| {
                let inner = p.read(b, |pb| pb.slot_count()).unwrap();
                pa.slot_count() + inner
            })
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn exhausted_pool_reports_no_free_frames_with_context() {
        let p = pool(1);
        let a = p.allocate_page().unwrap();
        let b = p.allocate_page().unwrap();
        // Pin a, then try to touch b: the only frame is pinned.
        let err = p
            .read(a, |_| match p.read(b, |_| ()) {
                Err(BufferError::NoFreeFrames {
                    pid,
                    shard,
                    pinned,
                    hit_ratio,
                    waited_ns,
                }) => {
                    assert_eq!(pid, b, "error names the requesting page");
                    assert_eq!(shard, 0, "error names the page's home shard");
                    assert_eq!(pinned, 1, "error counts the pinned frames");
                    assert_eq!(hit_ratio, None, "telemetry is off by default");
                    assert!(waited_ns > 0, "error reports the stall duration");
                    true
                }
                other => panic!("expected NoFreeFrames, got {other:?}"),
            })
            .unwrap();
        assert!(err, "expected NoFreeFrames while the sole frame is pinned");
    }

    #[test]
    fn exhausted_telemetry_pool_reports_hit_ratio() {
        let p = BufferPool::builder().capacity(1).telemetry(true).build();
        let a = p.allocate_page().unwrap();
        let b = p.allocate_page().unwrap();
        p.read(a, |_| ()).unwrap(); // a miss (faulted back after b's alloc evicted it)
        p.read(a, |_| ()).unwrap(); // a hit
        let msg = p
            .read(a, |_| {
                let err = p.read(b, |_| ()).unwrap_err();
                match &err {
                    BufferError::NoFreeFrames { hit_ratio, .. } => {
                        let r = hit_ratio.expect("telemetry pool reports a ratio");
                        assert!(r.is_finite() && (0.0..=1.0).contains(&r), "ratio {r}");
                    }
                    other => panic!("expected NoFreeFrames, got {other:?}"),
                }
                err.to_string()
            })
            .unwrap();
        assert!(
            msg.contains("shard 0") && msg.contains("hit ratio"),
            "diagnostic should carry shard and ratio: {msg}"
        );
    }

    #[test]
    fn telemetry_counts_pool_behaviour() {
        let p = BufferPool::builder().capacity(2).telemetry(true).build();
        let pids: Vec<_> = (0..3).map(|_| p.allocate_page().unwrap()).collect();
        for &pid in &pids {
            p.write(pid, |mut pg| pg.init()).unwrap();
        }
        // Touching the evicted page is a miss; re-touching it is a hit.
        p.read(pids[0], |_| ()).unwrap();
        p.read(pids[0], |_| ()).unwrap();
        let snaps = p.telemetry().expect("telemetry enabled");
        assert_eq!(snaps.len(), 1);
        let s = snaps[0];
        assert_eq!(s.shard, 0);
        assert!(s.misses >= 1, "fault after eviction counts a miss: {s:?}");
        assert!(s.hits >= 1, "resident re-read counts a hit: {s:?}");
        assert!(s.evictions >= 1, "capacity pressure evicts: {s:?}");
        assert!(s.writebacks >= 1, "dirty victims are written back: {s:?}");
        assert_eq!(s.pin_waits, 0);
        // Flushes count write-backs too: dirty exactly one page on an
        // otherwise-clean pool and flush it.
        p.flush_all().unwrap();
        let wb = p.telemetry().unwrap()[0].writebacks;
        p.write(pids[0], |mut pg| pg.init()).unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.telemetry().unwrap()[0].writebacks, wb + 1);
    }

    #[test]
    fn telemetry_does_not_change_io_accounting() {
        let run = |telemetry: bool| {
            let p = BufferPool::builder()
                .capacity(3)
                .telemetry(telemetry)
                .build();
            let pids: Vec<_> = (0..10).map(|_| p.allocate_page().unwrap()).collect();
            for &pid in &pids {
                p.write(pid, |mut pg| pg.init()).unwrap();
            }
            for &pid in &pids {
                p.read(pid, |_| ()).unwrap();
            }
            p.flush_and_clear().unwrap();
            p.stats().snapshot()
        };
        assert_eq!(run(false), run(true), "IoStats must be telemetry-blind");
    }

    #[test]
    fn disabled_telemetry_returns_none() {
        let p = pool(2);
        assert!(p.telemetry().is_none());
    }

    #[test]
    fn sharded_telemetry_reports_every_stripe() {
        let p = BufferPool::builder()
            .capacity(8)
            .shards(4)
            .telemetry(true)
            .build();
        let pids: Vec<_> = (0..32).map(|_| p.allocate_page().unwrap()).collect();
        for &pid in &pids {
            p.read(pid, |_| ()).unwrap();
        }
        let snaps = p.telemetry().unwrap();
        assert_eq!(snaps.len(), 4);
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.shard, i, "snapshots come back in stripe order");
        }
        let total: u64 = snaps.iter().map(|s| s.probes()).sum();
        assert_eq!(total, 32, "every pin probe lands in exactly one stripe");
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let p = pool(4);
        let pid = p.allocate_page().unwrap();
        p.write(pid, |mut pg| {
            pg.init();
            pg.insert(b"durable").unwrap();
        })
        .unwrap();
        let w_before = p.stats().writes();
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes(), w_before + 1);
        // Second flush is a no-op: nothing dirty.
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes(), w_before + 1);
    }

    #[test]
    fn flush_and_clear_cold_starts_the_pool() {
        let p = pool(4);
        let pid = p.allocate_page().unwrap();
        p.write(pid, |mut pg| pg.init()).unwrap();
        assert!(p.resident_pages() > 0);
        p.flush_and_clear().unwrap();
        assert_eq!(p.resident_pages(), 0);
        let before = p.stats().reads();
        p.read(pid, |_| ()).unwrap();
        assert_eq!(p.stats().reads(), before + 1, "page must be re-faulted");
    }

    #[test]
    fn allocation_does_not_count_a_read() {
        let p = pool(4);
        p.allocate_page().unwrap();
        assert_eq!(p.stats().reads(), 0);
        assert_eq!(p.stats().allocations(), 1);
    }

    #[test]
    fn freed_pages_are_recycled() {
        let p = pool(4);
        let a = p.allocate_page().unwrap();
        p.write(a, |mut pg| {
            pg.init();
            pg.insert(b"garbage").unwrap();
        })
        .unwrap();
        let total_before = p.num_pages();
        p.free_page(a).unwrap();
        assert_eq!(p.free_pages(), 1);
        // Next allocation reuses the freed page, zeroed, without growing
        // the store.
        let b = p.allocate_page().unwrap();
        assert_eq!(b, a);
        assert_eq!(p.num_pages(), total_before);
        assert_eq!(p.free_pages(), 0);
        let zeroed = p.read(b, |pg| pg.bytes().iter().all(|&x| x == 0)).unwrap();
        assert!(zeroed, "recycled page must come back zeroed");
    }

    #[test]
    fn freeing_a_pinned_page_is_an_error() {
        let p = pool(2);
        let a = p.allocate_page().unwrap();
        let err = p
            .read(a, |_| {
                matches!(p.free_page(a), Err(BufferError::PagePinned(_)))
            })
            .unwrap();
        assert!(err);
        // Unpinned: fine.
        p.free_page(a).unwrap();
    }

    #[test]
    fn freed_dirty_page_is_not_written_back() {
        let p = pool(2);
        let a = p.allocate_page().unwrap();
        p.write(a, |mut pg| pg.init()).unwrap();
        let w = p.stats().writes();
        p.free_page(a).unwrap();
        p.flush_all().unwrap();
        assert_eq!(
            p.stats().writes(),
            w,
            "freed contents are garbage; no write-back"
        );
    }

    fn pool_with(capacity: usize, policy: ReplacementPolicy) -> BufferPool {
        BufferPool::builder()
            .capacity(capacity)
            .policy(policy)
            .build()
    }

    #[test]
    fn sieve_retains_rereferenced_pages_across_a_scan() {
        let p = pool_with(4, ReplacementPolicy::Sieve);
        let hot: Vec<_> = (0..2).map(|_| p.allocate_page().unwrap()).collect();
        // Establish reuse: the hot pages carry visited bits.
        for &pid in &hot {
            p.read(pid, |_| ()).unwrap();
        }
        let before = p.stats().reads();
        // A sustained one-touch scan flood interleaved with hot
        // re-references — the hand sweeps the scan pages out while every
        // lap's reprieve is renewed for the hot pair.
        for _ in 0..10 {
            for _ in 0..2 {
                p.allocate_page().unwrap();
            }
            for &pid in &hot {
                p.read(pid, |_| ()).unwrap();
            }
        }
        assert_eq!(
            p.stats().reads(),
            before,
            "SIEVE kept the re-referenced pages resident through the flood"
        );
    }

    #[test]
    fn all_policies_are_transparent_caches() {
        for policy in ReplacementPolicy::ALL {
            let p = pool_with(3, policy);
            let pids: Vec<_> = (0..10).map(|_| p.allocate_page().unwrap()).collect();
            for (i, &pid) in pids.iter().enumerate() {
                p.write(pid, |mut pg| {
                    pg.init();
                    pg.set_flags(i as u32);
                })
                .unwrap();
            }
            for (i, &pid) in pids.iter().enumerate() {
                let flags = p.read(pid, |pg| pg.flags()).unwrap();
                assert_eq!(flags, i as u32, "{policy:?} corrupted page {pid}");
            }
            assert_eq!(p.policy(), policy);
        }
    }

    #[test]
    fn sharded_pool_is_a_transparent_cache() {
        for shards in [1, 2, 4, 8] {
            let p = BufferPool::builder().capacity(16).shards(shards).build();
            assert_eq!(p.shards(), shards);
            assert_eq!(p.capacity(), 16);
            let pids: Vec<_> = (0..64).map(|_| p.allocate_page().unwrap()).collect();
            for (i, &pid) in pids.iter().enumerate() {
                p.write(pid, |mut pg| {
                    pg.init();
                    pg.set_flags(i as u32);
                })
                .unwrap();
            }
            for (i, &pid) in pids.iter().enumerate() {
                let flags = p.read(pid, |pg| pg.flags()).unwrap();
                assert_eq!(flags, i as u32, "{shards} shards corrupted page {pid}");
            }
        }
    }

    #[test]
    fn sharded_capacity_split_covers_remainders() {
        let p = BufferPool::builder().capacity(10).shards(3).build();
        assert_eq!(p.capacity(), 10, "4 + 3 + 3 frames");
        // All three shards must be usable under pressure.
        let pids: Vec<_> = (0..40).map(|_| p.allocate_page().unwrap()).collect();
        for &pid in &pids {
            p.write(pid, |mut pg| pg.init()).unwrap();
        }
        for &pid in &pids {
            p.read(pid, |_| ()).unwrap();
        }
    }

    #[test]
    fn sharded_recycling_is_bounded_and_loses_no_page() {
        let p = BufferPool::builder().capacity(8).shards(4).build();
        // A query loop: seven scratch pages allocated, then freed.
        for _ in 0..500 {
            let pids: Vec<_> = (0..7).map(|_| p.allocate_page().unwrap()).collect();
            for &pid in &pids {
                p.free_page(pid).unwrap();
            }
            // Every id the store ever handed out is back on a free list.
            assert_eq!(p.free_pages(), p.num_pages() as usize);
        }
        // 3,500 allocations, but a stripe only ever needs as many ids as
        // one round can ask of it.
        assert!(p.num_pages() <= 4 * 7, "store grew to {}", p.num_pages());
    }

    /// A frame's bytes are allocated at its first load and kept after
    /// eviction: a pool holds one page buffer per frame that has held a
    /// page, not one per frame of its capacity.
    #[test]
    fn a_frame_allocates_its_bytes_at_its_first_load() {
        let boxed = |p: &BufferPool| p.shards.iter().map(Shard::boxed_frames).sum::<usize>();
        let store = |pages: usize| {
            let disk = MemDisk::new();
            for _ in 0..pages {
                disk.allocate_page().unwrap();
            }
            Box::new(disk)
        };

        let big = BufferPool::builder().capacity(4096).disk(store(10)).build();
        assert_eq!(boxed(&big), 0);
        for pid in 0..10 {
            big.read(pid, |_| ()).unwrap();
        }
        assert_eq!(boxed(&big), 10);
        big.flush_and_clear().unwrap();
        for pid in 0..10 {
            big.read(pid, |_| ()).unwrap();
        }
        assert_eq!(boxed(&big), 10, "a cleared pool reuses its boxes");

        let small = BufferPool::builder().capacity(16).disk(store(100)).build();
        for pid in 0..100 {
            small.read(pid, |_| ()).unwrap();
        }
        assert_eq!(small.stats().reads(), 100);
        assert_eq!(boxed(&small), 16, "an evicted frame keeps its box");
    }

    #[test]
    fn failed_allocation_returns_its_page_id_to_the_free_list() {
        use crate::disk::{FaultMode, FaultyDisk};
        let disk = Arc::new(FaultyDisk::new(MemDisk::new()));
        let p = BufferPool::builder()
            .capacity(1)
            .disk(Box::new(disk.clone()))
            .build();
        // `live` is dirty in the only frame, so the next allocation must
        // evict it, and that write-back fails.
        let live = p.allocate_page().unwrap();
        disk.arm(1, FaultMode::FailStop);
        assert!(matches!(p.allocate_page(), Err(BufferError::Disk(_))));
        let free = p.free_page_ids();
        assert_eq!(free.len(), 1, "the id the failed allocation took is free");
        assert_ne!(free[0], live);
        assert_eq!(1 + free.len(), p.num_pages() as usize, "no id leaked");
        // The store is healthy again, and the id is the next one handed out.
        assert_eq!(p.allocate_page().unwrap(), free[0]);
        assert_eq!(p.free_pages(), 0);
    }

    /// A WAL hook that hands out sequential LSNs and can be told to fail
    /// its next page-write log call.
    struct FlakyHook {
        next: std::sync::atomic::AtomicU32,
        fail_writes: std::sync::atomic::AtomicBool,
    }

    impl FlakyHook {
        fn new() -> Self {
            FlakyHook {
                next: std::sync::atomic::AtomicU32::new(0),
                fail_writes: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    use crate::wal::WalHook;
    use std::sync::atomic::Ordering;

    impl WalHook for FlakyHook {
        fn log_page_write(
            &self,
            _pid: PageId,
            _before: &PageBuf,
            _after: &PageBuf,
        ) -> Result<(Lsn, Lsn), DiskError> {
            if self.fail_writes.load(Ordering::SeqCst) {
                return Err(DiskError::io(
                    "wal append",
                    "flaky-hook",
                    std::io::Error::other("injected"),
                ));
            }
            let lsn = self.next.fetch_add(1, Ordering::SeqCst) + 1;
            Ok((lsn, lsn))
        }
        fn log_page_image(&self, _pid: PageId, _image: &PageBuf) -> Result<Lsn, DiskError> {
            Ok(self.next.fetch_add(1, Ordering::SeqCst) + 1)
        }
        fn flush_to(&self, _lsn: Lsn) -> Result<(), DiskError> {
            Ok(())
        }
    }

    #[test]
    fn failed_log_append_rolls_the_frame_back() {
        let hook = Arc::new(FlakyHook::new());
        let p = BufferPool::builder().capacity(4).build();
        p.attach_wal(hook.clone()).unwrap();
        let pid = p.allocate_page().unwrap();
        p.write(pid, |mut pg| {
            pg.init();
            pg.insert(b"logged").unwrap();
        })
        .unwrap();
        p.flush_page(pid).unwrap(); // frame clean, last state fully logged
        let before = p
            .read(pid, |v| {
                let mut b = [0u8; crate::PAGE_SIZE];
                b.copy_from_slice(v.bytes());
                b
            })
            .unwrap();

        hook.fail_writes.store(true, Ordering::SeqCst);
        let err = p.write(pid, |mut pg| {
            pg.insert(b"unlogged").unwrap();
        });
        assert!(matches!(err, Err(BufferError::Disk(_))));
        hook.fail_writes.store(false, Ordering::SeqCst);

        // The unlogged mutation must be gone and the frame clean again:
        // the pool never holds state the log cannot reconstruct.
        let after = p
            .read(pid, |v| {
                let mut b = [0u8; crate::PAGE_SIZE];
                b.copy_from_slice(v.bytes());
                b
            })
            .unwrap();
        assert_eq!(before[..], after[..], "mutation rolled back");
        let w = p.stats().writes();
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes(), w, "frame restored to clean");
        assert!(p.dirty_page_table().is_empty());
    }

    /// A logged write pin whose closure changes no byte — touches
    /// nothing, flips a byte and flips it back, or has an insert refused
    /// — leaves the frame as it was: a clean frame stays out of the
    /// dirty-page table and is not written back, and a dirty one keeps
    /// its recLSN.
    #[test]
    fn a_logged_write_pin_that_changes_nothing_leaves_the_frame_as_it_was() {
        let hook = Arc::new(FlakyHook::new());
        let p = BufferPool::builder().capacity(4).build();
        p.attach_wal(hook.clone()).unwrap();
        let pid = p.allocate_page().unwrap();
        p.write(pid, |mut pg| {
            pg.init();
            pg.insert(b"logged").unwrap();
        })
        .unwrap();
        let unchanged = |p: &BufferPool| {
            p.write(pid, |_| ()).unwrap();
            p.write(pid, |mut pg| {
                pg.bytes_mut()[100] ^= 0xFF;
                pg.bytes_mut()[100] ^= 0xFF;
            })
            .unwrap();
            p.write(pid, |mut pg| {
                assert!(pg.insert(&[0u8; crate::MAX_RECORD]).is_err());
            })
            .unwrap();
        };

        p.flush_all().unwrap();
        let (lsns, writes) = (hook.next.load(Ordering::SeqCst), p.stats().writes());
        unchanged(&p);
        assert!(p.dirty_page_table().is_empty(), "a clean frame stays clean");
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes(), writes, "and is not written back");
        assert_eq!(hook.next.load(Ordering::SeqCst), lsns, "nothing was logged");

        p.write(pid, |mut pg| {
            pg.insert(b"second").unwrap();
        })
        .unwrap();
        let dpt = p.dirty_page_table();
        assert_eq!(dpt.len(), 1);
        unchanged(&p);
        assert_eq!(p.dirty_page_table(), dpt, "a dirty frame keeps its recLSN");
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes(), writes + 1, "and is written back once");
    }
}
