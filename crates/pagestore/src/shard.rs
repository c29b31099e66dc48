//! One lock stripe of the buffer pool.
//!
//! A [`Shard`] owns a disjoint set of frames plus the mutable lookup
//! state guarding them: the page table, the free list of recycled page
//! ids homed here, and the replacement-policy recency state. All of it
//! sits behind one mutex, so two operations on pages of *different*
//! shards never contend. Frame contents are protected separately by a
//! per-frame `RwLock`, and the pin protocol guarantees a frame's data
//! is never stolen while a closure is reading or writing it: victims
//! are only chosen among frames with `pin_count == 0`, and pin counts
//! only move under the shard lock (up) or after the data guard is
//! dropped (down).
//!
//! With a WAL attached, a dirty frame carries a recLSN for the
//! checkpoint dirty-page table: the LSN of the page's full image in the
//! current full-page-write epoch, set when a clean frame is dirtied. A
//! write-back flushes the log through the page LSN first, then clears
//! the recLSN; it tells the log nothing else, since the page is imaged
//! once per checkpoint interval, not once per write-back.
//!
//! A frame's page bytes are allocated the first time the frame is
//! written ([`FrameBuf`]) and kept after eviction, so a shard costs
//! memory only for the frames that have ever held a page. Unused frames
//! sit at the cold end of the replacement list and are taken first;
//! `capacity` is a ceiling, not an allocation.

use crate::buffer::BufferError;
use crate::disk::DiskManager;
use crate::page::{PageBuf, PageId, PageView, PAGE_SIZE};
use crate::policy::{ReplacementPolicy, ReplacementState};
use crate::stats::IoStats;
use crate::telemetry::{ShardTelemetry, ShardTelemetrySnapshot};
use crate::wal::{Lsn, WalHook, NO_LSN};
use cor_obs::flight;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How often a fully-pinned shard re-checks for a victim before giving
/// up with [`BufferError::NoFreeFrames`]. Pin counts drop without the
/// shard lock, so a concurrent unpin can free a victim while we hold it.
const FRAME_STALL_RETRIES: usize = 20;

/// Sleep between victim re-checks; total stall budget before failing is
/// `FRAME_STALL_RETRIES * FRAME_STALL_SLEEP` (~1 ms) plus scheduling.
const FRAME_STALL_SLEEP: Duration = Duration::from_micros(50);

/// A multiply-rotate [`Hasher`] for the page table: one multiply per
/// lookup instead of SipHash's rounds, in the shape of
/// `cor_relational::OidHasher`. Page ids are minted by the pool itself,
/// never taken from outside input, so SipHash's resistance to crafted
/// collisions buys nothing here, while every pin hit pays one lookup and
/// every miss a lookup, a removal and an insertion.
///
/// The hasher is fixed, not seeded per process, so the page table's
/// iteration order — the order [`Shard::flush_all`] writes pages back
/// in — is the same in every process. `dirty_page_table` still sorts.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Page id -> frame index under [`PageIdHasher`].
type PageTable = HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>;

/// All zeros: what a frame that has never held a page reads as.
static ZERO_PAGE: PageBuf = [0u8; PAGE_SIZE];

/// A frame's page bytes, boxed on the first write through
/// [`DerefMut`] and kept from then on. Until then [`Deref`] reads the
/// shared [`ZERO_PAGE`].
pub(crate) struct FrameBuf(Option<Box<PageBuf>>);

impl Deref for FrameBuf {
    type Target = PageBuf;

    #[inline]
    fn deref(&self) -> &PageBuf {
        self.0.as_deref().unwrap_or(&ZERO_PAGE)
    }
}

impl DerefMut for FrameBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut PageBuf {
        self.0.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }
}

pub(crate) struct FrameData {
    pub(crate) page_id: PageId,
    pub(crate) dirty: bool,
    /// recLSN: the LSN of the page's full image in the full-page-write
    /// epoch in which the clean frame was dirtied — at or below the
    /// record that dirtied it ([`NO_LSN`] when clean or when no WAL is
    /// attached). Reported in
    /// the checkpoint dirty-page table; redo must start no later than the
    /// minimum recLSN over all dirty frames.
    pub(crate) rec_lsn: Lsn,
    pub(crate) data: FrameBuf,
}

/// Uphold WAL-before-data for one frame about to be written back: the
/// log must be durable through the frame's page LSN before the page
/// bytes may reach the disk manager.
fn wal_before_data(wal: Option<&dyn WalHook>, st: &FrameData) -> Result<(), BufferError> {
    if let Some(w) = wal {
        let lsn = PageView::new(&st.data[..]).lsn();
        if lsn != NO_LSN {
            w.flush_to(lsn)?;
        }
    }
    Ok(())
}

/// Bookkeeping after a successful write-back: the frame is clean and its
/// dirty period is over.
fn after_write_back(st: &mut FrameData) {
    st.dirty = false;
    st.rec_lsn = NO_LSN;
}

pub(crate) struct Frame {
    pub(crate) pin_count: AtomicUsize,
    pub(crate) state: RwLock<FrameData>,
}

struct ShardInner {
    /// page id -> frame index, for pages resident in this shard.
    page_table: PageTable,
    /// Freed pages homed to this shard, available for reuse.
    free_list: Vec<PageId>,
    /// Recency state for this shard's frames.
    repl: ReplacementState,
}

pub(crate) struct Shard {
    frames: Vec<Frame>,
    inner: Mutex<ShardInner>,
    /// Position of this stripe in the pool, reported in telemetry and in
    /// [`BufferError::NoFreeFrames`] diagnostics.
    index: usize,
    /// Behaviour counters; `None` keeps the hot path free of telemetry
    /// entirely (the "free when disabled" contract).
    telemetry: Option<ShardTelemetry>,
}

impl Shard {
    pub(crate) fn new(capacity: usize, index: usize, telemetry: bool) -> Self {
        assert!(capacity > 0, "every shard needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                pin_count: AtomicUsize::new(0),
                state: RwLock::new(FrameData {
                    page_id: PageId::MAX,
                    dirty: false,
                    rec_lsn: NO_LSN,
                    data: FrameBuf(None),
                }),
            })
            .collect();
        Shard {
            frames,
            inner: Mutex::new(ShardInner {
                page_table: PageTable::default(),
                free_list: Vec::new(),
                repl: ReplacementState::new(capacity),
            }),
            index,
            telemetry: telemetry.then(ShardTelemetry::default),
        }
    }

    /// Telemetry counters for this stripe, when enabled.
    pub(crate) fn telemetry_snapshot(&self) -> Option<ShardTelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.snapshot(self.index))
    }

    #[inline]
    fn count(&self, f: impl FnOnce(&ShardTelemetry)) {
        if let Some(t) = &self.telemetry {
            f(t);
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn frame(&self, idx: usize) -> &Frame {
        &self.frames[idx]
    }

    /// Release a pin taken by [`Self::pin`] or [`Self::allocate_into`].
    pub(crate) fn unpin(&self, idx: usize) {
        self.frames[idx].pin_count.fetch_sub(1, Ordering::Release);
    }

    /// Pop a recycled page id homed to this shard, if any.
    pub(crate) fn pop_free(&self) -> Option<PageId> {
        self.inner.lock().free_list.pop()
    }

    /// Pin `pid` into a frame, faulting it in from `disk` if needed.
    /// Returns the frame index with `pin_count` already incremented.
    pub(crate) fn pin(
        &self,
        pid: PageId,
        policy: ReplacementPolicy,
        disk: &dyn DiskManager,
        stats: &IoStats,
        wal: Option<&dyn WalHook>,
    ) -> Result<usize, BufferError> {
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.page_table.get(&pid) {
            self.frames[idx].pin_count.fetch_add(1, Ordering::Acquire);
            inner.repl.on_hit(idx, policy);
            self.count(|t| t.hits.inc());
            return Ok(idx);
        }
        self.count(|t| t.misses.inc());
        let idx = self.acquire_frame(&mut inner, pid, policy, disk, stats, wal)?;
        {
            let mut st = self.frames[idx].state.write();
            if let Err(e) = disk.read_page(pid, &mut st.data) {
                st.page_id = PageId::MAX;
                drop(st);
                self.unpin(idx);
                return Err(e.into());
            }
            stats.record_read();
            st.page_id = pid;
            st.dirty = false;
            st.rec_lsn = NO_LSN;
        }
        inner.page_table.insert(pid, idx);
        inner.repl.on_load(idx);
        Ok(idx)
    }

    /// Bring freshly allocated page `pid` into a frame, zeroed and
    /// dirty, without a physical read. Returns the frame index with
    /// `pin_count` already incremented.
    pub(crate) fn allocate_into(
        &self,
        pid: PageId,
        policy: ReplacementPolicy,
        disk: &dyn DiskManager,
        stats: &IoStats,
        wal: Option<&dyn WalHook>,
    ) -> Result<usize, BufferError> {
        let mut inner = self.inner.lock();
        let idx = self.acquire_frame(&mut inner, pid, policy, disk, stats, wal)?;
        let mut st = self.frames[idx].state.write();
        st.page_id = pid;
        st.dirty = true;
        st.rec_lsn = NO_LSN;
        st.data.fill(0);
        drop(st);
        inner.page_table.insert(pid, idx);
        inner.repl.on_load(idx);
        Ok(idx)
    }

    /// Find a victim frame (unpinned, per the replacement policy), write
    /// it back if dirty, detach it from the page table, and return it
    /// pinned.
    ///
    /// When every candidate is pinned, the shard stalls briefly —
    /// re-checking for a victim up to [`FRAME_STALL_RETRIES`] times,
    /// since pin counts drop without the shard lock — before giving up.
    /// On failure reports `pid` (the page that wanted a frame), which
    /// stripe it is homed to, how many frames were pinned, how long the
    /// stall lasted, and — when telemetry is on — the stripe's hit ratio
    /// at failure time.
    fn acquire_frame(
        &self,
        inner: &mut ShardInner,
        pid: PageId,
        policy: ReplacementPolicy,
        disk: &dyn DiskManager,
        stats: &IoStats,
        wal: Option<&dyn WalHook>,
    ) -> Result<usize, BufferError> {
        let unpinned = |i: usize| self.frames[i].pin_count.load(Ordering::Acquire) == 0;
        let mut victim = inner.repl.pick_victim(policy, unpinned);
        if victim.is_none() {
            // Off the hot path: the clock reads below price the stall for
            // the error context.
            self.count(|t| t.pin_waits.inc());
            let t0 = Instant::now();
            for _ in 0..FRAME_STALL_RETRIES {
                std::thread::sleep(FRAME_STALL_SLEEP);
                victim = inner.repl.pick_victim(policy, unpinned);
                if victim.is_some() {
                    break;
                }
            }
            let waited_ns = t0.elapsed().as_nanos() as u64;
            if victim.is_none() {
                let pinned = self
                    .frames
                    .iter()
                    .filter(|f| f.pin_count.load(Ordering::Acquire) != 0)
                    .count();
                flight::record(
                    flight::FlightKind::NoFreeFrames,
                    self.index as u64,
                    pid as u64,
                    pinned as u64,
                );
                return Err(BufferError::NoFreeFrames {
                    pid,
                    shard: self.index,
                    pinned,
                    hit_ratio: self.telemetry.as_ref().map(ShardTelemetry::hit_ratio),
                    waited_ns,
                });
            }
        }
        let victim = victim.expect("checked above");
        // Pin immediately so a concurrent caller cannot also claim it.
        self.frames[victim]
            .pin_count
            .fetch_add(1, Ordering::Acquire);
        let mut st = self.frames[victim].state.write();
        if st.page_id != PageId::MAX {
            if st.dirty {
                let written = wal_before_data(wal, &st)
                    .and_then(|()| disk.write_page(st.page_id, &st.data).map_err(Into::into));
                if let Err(e) = written {
                    drop(st);
                    self.unpin(victim);
                    return Err(e);
                }
                stats.record_write();
                self.count(|t| t.writebacks.inc());
                after_write_back(&mut st);
            }
            inner.page_table.remove(&st.page_id);
            st.page_id = PageId::MAX;
            self.count(|t| t.evictions.inc());
        }
        Ok(victim)
    }

    /// Return `pid` to this shard's free list, discarding any resident
    /// copy without a write-back.
    pub(crate) fn free_page(&self, pid: PageId) -> Result<(), BufferError> {
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.page_table.get(&pid) {
            if self.frames[idx].pin_count.load(Ordering::Acquire) != 0 {
                return Err(BufferError::PagePinned(pid));
            }
            inner.page_table.remove(&pid);
            let mut st = self.frames[idx].state.write();
            st.page_id = PageId::MAX;
            st.dirty = false;
            st.rec_lsn = NO_LSN;
        }
        debug_assert!(!inner.free_list.contains(&pid), "double free of page {pid}");
        inner.free_list.push(pid);
        Ok(())
    }

    /// Number of recycled page ids homed here.
    pub(crate) fn free_pages(&self) -> usize {
        self.inner.lock().free_list.len()
    }

    /// Append the recycled page ids homed here to `out`.
    pub(crate) fn collect_free(&self, out: &mut Vec<PageId>) {
        out.extend_from_slice(&self.inner.lock().free_list);
    }

    /// Write `pid` back to disk if resident and dirty. Returns whether a
    /// write happened.
    pub(crate) fn flush_page(
        &self,
        pid: PageId,
        disk: &dyn DiskManager,
        stats: &IoStats,
        wal: Option<&dyn WalHook>,
    ) -> Result<bool, BufferError> {
        let inner = self.inner.lock();
        let Some(&idx) = inner.page_table.get(&pid) else {
            return Ok(false);
        };
        let mut st = self.frames[idx].state.write();
        if !st.dirty {
            return Ok(false);
        }
        wal_before_data(wal, &st)?;
        disk.write_page(st.page_id, &st.data)?;
        stats.record_write();
        self.count(|t| t.writebacks.inc());
        after_write_back(&mut st);
        Ok(true)
    }

    /// Write all dirty resident pages back to disk.
    pub(crate) fn flush_all(
        &self,
        disk: &dyn DiskManager,
        stats: &IoStats,
        wal: Option<&dyn WalHook>,
    ) -> Result<(), BufferError> {
        let inner = self.inner.lock();
        for &idx in inner.page_table.values() {
            let mut st = self.frames[idx].state.write();
            if st.dirty {
                wal_before_data(wal, &st)?;
                disk.write_page(st.page_id, &st.data)?;
                stats.record_write();
                self.count(|t| t.writebacks.inc());
                after_write_back(&mut st);
            }
        }
        Ok(())
    }

    /// Flush then forget every resident page and all recency state.
    pub(crate) fn flush_and_clear(
        &self,
        disk: &dyn DiskManager,
        stats: &IoStats,
        wal: Option<&dyn WalHook>,
    ) -> Result<(), BufferError> {
        let mut inner = self.inner.lock();
        for (_, idx) in inner.page_table.drain() {
            let mut st = self.frames[idx].state.write();
            debug_assert_eq!(self.frames[idx].pin_count.load(Ordering::Acquire), 0);
            if st.dirty {
                wal_before_data(wal, &st)?;
                disk.write_page(st.page_id, &st.data)?;
                stats.record_write();
                self.count(|t| t.writebacks.inc());
                after_write_back(&mut st);
            }
            st.page_id = PageId::MAX;
        }
        inner.repl.reset();
        Ok(())
    }

    /// Append this shard's `(page_id, recLSN)` pairs for dirty resident
    /// frames — its slice of the checkpoint dirty-page table.
    pub(crate) fn collect_dirty(&self, out: &mut Vec<(PageId, Lsn)>) {
        let inner = self.inner.lock();
        for (&pid, &idx) in inner.page_table.iter() {
            let st = self.frames[idx].state.read();
            if st.dirty && st.rec_lsn != NO_LSN {
                out.push((pid, st.rec_lsn));
            }
        }
    }

    /// Number of pages resident in this shard.
    pub(crate) fn resident_pages(&self) -> usize {
        self.inner.lock().page_table.len()
    }

    /// Number of frames whose page bytes have been allocated.
    #[cfg(test)]
    pub(crate) fn boxed_frames(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.state.read().data.0.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BufferPool;
    use std::hash::BuildHasher;

    #[test]
    fn page_table_behaves_like_a_map_and_spreads_dense_and_striped_ids() {
        let mut t = PageTable::default();
        for pid in 0..10_000 {
            t.insert(pid, pid as usize * 3);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.get(&9_999), Some(&29_997));
        assert_eq!(t.get(&10_000), None);
        assert_eq!(t.remove(&17), Some(51));
        assert_eq!(t.get(&17), None);

        // The pool mints page ids densely, and a 4-shard pool homes a
        // scattered quarter of them to each stripe. hashbrown buckets by
        // the low bits and tags by the top seven: neither id set may
        // collapse onto a few values of either.
        let pool = BufferPool::builder().capacity(4).shards(4).build();
        let dense: Vec<PageId> = (0..1024).collect();
        let striped: Vec<PageId> = (0..)
            .filter(|&pid| pool.shard_index_of(pid) == 1)
            .take(1024)
            .collect();
        let h = BuildHasherDefault::<PageIdHasher>::default();
        for (name, ids) in [("dense", dense), ("striped", striped)] {
            let hashes: Vec<u64> = ids.iter().map(|&pid| h.hash_one(pid)).collect();
            let distinct = |f: fn(u64) -> u64| {
                let mut v: Vec<u64> = hashes.iter().map(|&x| f(x)).collect();
                v.sort_unstable();
                v.dedup();
                v.len()
            };
            assert!(distinct(|x| x & 0x3ff) > 512, "{name}: low bits spread");
            assert!(distinct(|x| x >> 57) > 100, "{name}: top bits spread");
        }
    }
}
