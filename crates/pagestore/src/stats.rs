//! I/O statistics.
//!
//! The paper's performance yardstick is *average I/O traffic per query*,
//! measured through INGRES system counters. We reproduce the yardstick by
//! counting every physical page transfer that crosses the buffer pool
//! boundary: a read when a page is faulted in from the disk manager, a write
//! when a dirty page is evicted or flushed.
//!
//! Counters are atomic so that a single [`IoStats`] handle can be shared
//! between the buffer pool and a measurement driver, and so parallel
//! experiment sweeps can keep per-database statistics without locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared atomic counters for physical page I/O.
///
/// When the recording thread is collecting a causal trace
/// (`cor_obs::tracetree`), `record_read`/`record_write` also charge the
/// innermost trace node and the caller's current
/// [`Phase`](cor_obs::Phase) in the trace's ledger — in the same call,
/// so the trace's sums equal the totals the thread drove. With no trace
/// active (always, unless a query is being traced or explained on this
/// thread) that path is one thread-local flag load.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    /// Runs handed to the `cor-aio` submission layer.
    aio_submitted: AtomicU64,
    /// Runs the `cor-aio` backend finished (successfully or not).
    aio_completed: AtomicU64,
    /// Peak number of runs simultaneously in flight on the backend.
    aio_in_flight_peak: AtomicU64,
}

impl IoStats {
    /// Create a fresh, zeroed counter set behind an [`Arc`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record one physical page read.
    #[inline]
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        cor_obs::tracetree::charge_read();
    }

    /// Record one physical page write.
    #[inline]
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        cor_obs::tracetree::charge_write();
    }

    /// Record one page allocation (page appended to the store).
    #[inline]
    pub fn record_allocation(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `runs` runs handed to the async submission layer. Pure
    /// submission bookkeeping: the engine counts no page reads, so
    /// [`record_read`](Self::record_read) totals stay comparable across
    /// queue depths.
    #[inline]
    pub fn record_aio_submitted(&self, runs: u64) {
        self.aio_submitted.fetch_add(runs, Ordering::Relaxed);
    }

    /// Record `runs` runs completed by the async backend.
    #[inline]
    pub fn record_aio_completed(&self, runs: u64) {
        self.aio_completed.fetch_add(runs, Ordering::Relaxed);
    }

    /// Note an observed in-flight depth of `now` runs, updating the peak.
    #[inline]
    pub fn note_aio_in_flight(&self, now: u64) {
        self.aio_in_flight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Physical page reads so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Physical page writes so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Pages allocated so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Total I/O (reads + writes) — the paper's cost metric.
    pub fn total_io(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Runs submitted to the async layer so far.
    pub fn aio_submitted(&self) -> u64 {
        self.aio_submitted.load(Ordering::Relaxed)
    }

    /// Runs completed by the async backend so far.
    pub fn aio_completed(&self) -> u64 {
        self.aio_completed.load(Ordering::Relaxed)
    }

    /// Peak runs simultaneously in flight so far.
    pub fn aio_in_flight_peak(&self) -> u64 {
        self.aio_in_flight_peak.load(Ordering::Relaxed)
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads(),
            writes: self.writes(),
            allocations: self.allocations(),
        }
    }

    /// Capture a *consistent* point-in-time copy of the counters.
    ///
    /// [`snapshot`](Self::snapshot) reads the three counters with three
    /// independent loads, so a reader racing [`reset`](Self::reset) (or a
    /// burst of writers) can observe a torn mix — e.g. pre-reset `reads`
    /// with post-reset `writes` (see the caveat on `reset`). This method
    /// closes that gap with a double-read protocol: take two snapshots
    /// back to back and accept only when they are equal, meaning no
    /// counter moved across the read window, so the values form one
    /// coherent cut. Under sustained concurrent traffic equality may
    /// keep failing; after a bounded number of attempts the last
    /// snapshot is returned — at that point the caller is measuring a
    /// moving target and no cut is more "correct" than another.
    ///
    /// Used by the crashtest harness and the explain profiler to take
    /// torn-free deltas around recovery and replay phases.
    pub fn snapshot_consistent(&self) -> IoSnapshot {
        const ATTEMPTS: usize = 64;
        let mut prev = self.snapshot();
        for _ in 0..ATTEMPTS {
            let cur = self.snapshot();
            if cur == prev {
                return cur;
            }
            prev = cur;
        }
        prev
    }

    /// Reset all counters to zero (between experiment phases).
    ///
    /// # Non-atomicity across counters
    ///
    /// The three counters are zeroed by three independent `store(0)`s,
    /// not one atomic transaction. A thread recording I/O concurrently
    /// with a reset can land its increment before, between, or after the
    /// stores, so a [`snapshot`](Self::snapshot) racing the reset may
    /// observe a mix of pre- and post-reset values (e.g. old `reads` with
    /// new `writes`). Each individual counter is still exact — nothing is
    /// lost or double-counted within one counter; only cross-counter
    /// consistency is relaxed. The experiment drivers only call `reset`
    /// at quiescent points (between strategy runs, with no worker threads
    /// in flight), where this cannot be observed. Callers that need a
    /// consistent cut while writers are active should use
    /// [`snapshot`](Self::snapshot) + [`IoSnapshot::since`] deltas
    /// against a baseline instead of resetting.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.aio_submitted.store(0, Ordering::Relaxed);
        self.aio_completed.store(0, Ordering::Relaxed);
        self.aio_in_flight_peak.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the counters, used to attribute I/O to phases
/// (the paper splits query cost into `ParCost` and `ChildCost`, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Physical reads at snapshot time.
    pub reads: u64,
    /// Physical writes at snapshot time.
    pub writes: u64,
    /// Allocations at snapshot time.
    pub allocations: u64,
}

impl IoSnapshot {
    /// Total I/O at snapshot time.
    pub fn total_io(&self) -> u64 {
        self.reads + self.writes
    }

    /// I/O performed since an earlier snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoDelta {
        IoDelta {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
        }
    }
}

/// The difference between two snapshots: the I/O charged to one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoDelta {
    /// Reads in the interval.
    pub reads: u64,
    /// Writes in the interval.
    pub writes: u64,
}

impl IoDelta {
    /// Total I/O in the interval.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl std::ops::Add for IoDelta {
    type Output = IoDelta;
    fn add(self, rhs: IoDelta) -> IoDelta {
        IoDelta {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl std::ops::AddAssign for IoDelta {
    fn add_assign(&mut self, rhs: IoDelta) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_allocation();
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.allocations(), 1);
        assert_eq!(s.total_io(), 3);
    }

    #[test]
    fn snapshot_delta_attributes_phase_io() {
        let s = IoStats::new();
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        s.record_write();
        let after = s.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 1);
        assert_eq!(delta.total(), 2);
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = IoStats::new();
        s.record_read();
        s.record_write();
        s.reset();
        assert_eq!(s.total_io(), 0);
        assert_eq!(s.allocations(), 0);
    }

    #[test]
    fn deltas_add() {
        let a = IoDelta {
            reads: 1,
            writes: 2,
        };
        let b = IoDelta {
            reads: 3,
            writes: 4,
        };
        let c = a + b;
        assert_eq!(c.reads, 4);
        assert_eq!(c.writes, 6);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn concurrent_increments_during_snapshots_are_never_lost() {
        // Writers hammer the counters while a reader takes snapshots and
        // accumulates `since` deltas. Every snapshot must be monotone in
        // each counter, chained deltas must telescope exactly, and after
        // the writers join the totals must be exact — relaxed atomics may
        // skew *across* counters but never lose an increment.
        let s = IoStats::new();
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 20_000;
        let (first, mid, acc) = std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..PER_WRITER {
                        s.record_read();
                        s.record_write();
                        s.record_allocation();
                    }
                });
            }
            let first = s.snapshot();
            let mut prev = first;
            let mut acc = IoDelta::default();
            for _ in 0..1_000 {
                let cur = s.snapshot();
                assert!(cur.reads >= prev.reads, "reads went backwards");
                assert!(cur.writes >= prev.writes, "writes went backwards");
                assert!(
                    cur.allocations >= prev.allocations,
                    "allocations went backwards"
                );
                acc += cur.since(&prev);
                prev = cur;
            }
            (first, prev, acc)
        });
        // Chained deltas telescope: sum of per-interval deltas equals the
        // end-to-end delta.
        assert_eq!(acc, mid.since(&first));
        // All writers joined: the final snapshot is exact.
        let last = s.snapshot();
        assert_eq!(last.reads, WRITERS * PER_WRITER);
        assert_eq!(last.writes, WRITERS * PER_WRITER);
        assert_eq!(last.allocations, WRITERS * PER_WRITER);
        assert!(acc.total() <= last.since(&IoSnapshot::default()).total());
    }

    #[test]
    fn concurrent_increments_during_reset_keep_counters_individually_exact() {
        // A reset racing writers may interleave between counters, but
        // afterwards (at quiescence) each counter holds only increments
        // that landed after its own store(0) — always <= the number of
        // post-reset events, never negative garbage.
        let s = IoStats::new();
        std::thread::scope(|scope| {
            let writer = {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..50_000 {
                        s.record_read();
                        s.record_write();
                    }
                })
            };
            s.reset(); // races the writer
            writer.join().unwrap();
        });
        let snap = s.snapshot();
        assert!(snap.reads <= 50_000);
        assert!(snap.writes <= 50_000);
        // After quiescence, reset is exact.
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn snapshot_consistent_is_a_coherent_cut() {
        // Quiescent: trivially equal to snapshot().
        let s = IoStats::new();
        s.record_read();
        s.record_write();
        assert_eq!(s.snapshot_consistent(), s.snapshot());

        // Concurrent: writers keep all three counters in lock-step (one
        // increment of each per round). A torn read could observe
        // reads != writes; a consistent cut taken while each writer is
        // between rounds must satisfy the invariant reads == writes ==
        // allocations whenever the double-read accepted (two equal
        // consecutive snapshots mean no writer was mid-round with a
        // visible partial update across the window). We can't force
        // acceptance under contention, so assert the weaker — but still
        // load-bearing — properties: monotonicity against earlier cuts
        // and exactness at quiescence.
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..20_000 {
                        s.record_read();
                        s.record_write();
                        s.record_allocation();
                    }
                });
            }
            let mut prev = s.snapshot_consistent();
            for _ in 0..500 {
                let cur = s.snapshot_consistent();
                assert!(cur.reads >= prev.reads);
                assert!(cur.writes >= prev.writes);
                assert!(cur.allocations >= prev.allocations);
                prev = cur;
            }
        });
        // Quiescent again: the consistent cut is exact.
        let cut = s.snapshot_consistent();
        assert_eq!(cut.reads, 80_000);
        assert_eq!(cut.writes, 80_000);
        assert_eq!(cut.allocations, 80_000);
    }

    #[test]
    fn since_saturates_rather_than_underflowing() {
        let later = IoSnapshot {
            reads: 1,
            writes: 1,
            allocations: 0,
        };
        let earlier = IoSnapshot {
            reads: 5,
            writes: 5,
            allocations: 0,
        };
        let d = later.since(&earlier);
        assert_eq!(d.total(), 0);
    }
}
