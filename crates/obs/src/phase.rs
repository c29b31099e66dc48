//! Thread-scoped phase attribution for physical page I/O.
//!
//! The paper's yardstick is *how many* pages a query transfers; this
//! module answers *where they go*. A strategy (or an access method on its
//! behalf) brackets a region of work with a [`PhaseGuard`]; while the
//! guard is alive, every page transfer the thread drives through an
//! [`IoStats`](../../cor_pagestore) handle that carries a
//! [`PhaseProfile`] is charged to that phase. Attribution is exact by
//! construction: the profile is incremented in the same call that bumps
//! the total counters, so per-phase sums always equal the totals (with
//! [`Phase::Other`] as the catch-all for unbracketed work).
//!
//! Two guard flavours keep nesting sane:
//!
//! * [`PhaseGuard::enter`] — unconditional. Used by the *strategy* layer
//!   for semantically owned regions (`temp_build`, `sort`, `merge_join`,
//!   `cluster_scan`, `cache_probe`, `cache_maintain`).
//! * [`PhaseGuard::enter_default`] — takes effect only when no phase is
//!   active. Used by the *access* layer (B-tree descents and leaf reads)
//!   so its fine-grained default attribution never overrides an explicit
//!   strategy-level bracket — a cluster range scan stays `cluster_scan`
//!   even though it runs through the same B-tree code.
//!
//! Everything here is free when unused: a guard is two thread-local
//! `Cell` operations plus one relaxed atomic load (the timing switch),
//! and profiles are attached per `IoStats` handle, so the paper's I/O
//! accounting is byte-identical whether or not anything is profiled.
//!
//! Wall-clock attribution is opt-in via [`enable_timing`] (a process
//! global, default off): phase transitions then partition the thread's
//! wall time exactly across phases, readable via [`take_thread_wall`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of distinct phases (including the [`Phase::Other`] catch-all).
pub const PHASE_COUNT: usize = 9;

/// Where a page transfer is charged. See the module docs for which layer
/// emits which phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Unbracketed work: database build, buffer flushes between runs,
    /// update application — the catch-all that makes phase sums exact.
    Other = 0,
    /// Internal (non-leaf) pages read while descending an index.
    IndexDescent = 1,
    /// Leaf/data pages fetched to produce records (base-relation access).
    HeapFetch = 2,
    /// Cache-relation reads while probing the unit-value cache.
    CacheProbe = 3,
    /// Cache-relation writes/deletes: insertions, invalidations,
    /// evictions, and inside-placement copy maintenance.
    CacheMaintain = 4,
    /// Building and forcing the BFS temporary relation.
    TempBuild = 5,
    /// External-sort run generation and run merging (spill I/O).
    Sort = 6,
    /// The merge-join co-scan of the sorted temporary against ChildRel.
    MergeJoin = 7,
    /// The DFSCLUST cluster-range scan and its ISAM-guided random
    /// accesses to foreign clusters.
    ClusterScan = 8,
}

impl Phase {
    /// Every phase, catch-all first, in tag order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Other,
        Phase::IndexDescent,
        Phase::HeapFetch,
        Phase::CacheProbe,
        Phase::CacheMaintain,
        Phase::TempBuild,
        Phase::Sort,
        Phase::MergeJoin,
        Phase::ClusterScan,
    ];

    /// Stable snake_case name (used by exporters and JSONL traces).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Other => "other",
            Phase::IndexDescent => "index_descent",
            Phase::HeapFetch => "heap_fetch",
            Phase::CacheProbe => "cache_probe",
            Phase::CacheMaintain => "cache_maintain",
            Phase::TempBuild => "temp_build",
            Phase::Sort => "sort",
            Phase::MergeJoin => "merge_join",
            Phase::ClusterScan => "cluster_scan",
        }
    }

    /// Invert [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The phase's index into profile arrays (`0..PHASE_COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }
}

thread_local! {
    static CURRENT: Cell<Phase> = const { Cell::new(Phase::Other) };
    static WALL_NS: Cell<[u64; PHASE_COUNT]> = const { Cell::new([0; PHASE_COUNT]) };
    static LAST_SWITCH: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Process-wide switch for wall-clock phase attribution. Off by default
/// so guards in hot paths cost no clock reads.
static TIMING: AtomicBool = AtomicBool::new(false);

/// The phase currently charged on this thread.
pub fn current_phase() -> Phase {
    CURRENT.with(|c| c.get())
}

/// Turn wall-clock phase attribution on or off for the whole process.
/// While on, every phase transition reads the monotonic clock and the
/// elapsed interval is charged to the outgoing phase.
pub fn enable_timing(on: bool) {
    if on {
        // Start a fresh interval so time before enabling is not charged.
        LAST_SWITCH.with(|l| l.set(Some(Instant::now())));
    }
    TIMING.store(on, Ordering::Relaxed);
}

fn timing_on() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Charge the interval since the last transition to the current phase
/// and restart the interval clock.
fn charge_current() {
    let now = Instant::now();
    let prev = LAST_SWITCH.with(|l| l.replace(Some(now)));
    if let Some(t0) = prev {
        let ns = u64::try_from((now - t0).as_nanos()).unwrap_or(u64::MAX);
        let idx = current_phase().index();
        WALL_NS.with(|w| {
            let mut a = w.get();
            a[idx] = a[idx].saturating_add(ns);
            w.set(a);
        });
    }
}

/// Drain this thread's per-phase wall-clock accumulators (nanoseconds,
/// indexed by [`Phase::index`]), charging the still-open interval to the
/// current phase first. Returns zeros when timing was never enabled.
pub fn take_thread_wall() -> [u64; PHASE_COUNT] {
    if timing_on() {
        charge_current();
    }
    WALL_NS.with(|w| w.replace([0; PHASE_COUNT]))
}

/// RAII bracket setting the thread's phase; restores the previous phase
/// on drop. Innermost unconditional guard wins.
#[must_use = "a phase guard attributes I/O only while it is alive"]
pub struct PhaseGuard {
    prev: Phase,
    changed: bool,
}

impl PhaseGuard {
    /// Enter `phase` unconditionally (strategy-level attribution).
    pub fn enter(phase: Phase) -> PhaseGuard {
        let prev = current_phase();
        let changed = prev != phase;
        if changed {
            if timing_on() {
                charge_current();
            }
            CURRENT.with(|c| c.set(phase));
            crate::tracetree::on_phase_enter(phase);
        }
        PhaseGuard { prev, changed }
    }

    /// Enter `phase` only if no phase is active (access-layer default
    /// attribution; an explicit outer bracket is never overridden).
    pub fn enter_default(phase: Phase) -> PhaseGuard {
        let prev = current_phase();
        if prev == Phase::Other {
            PhaseGuard::enter(phase)
        } else {
            PhaseGuard {
                prev,
                changed: false,
            }
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.changed {
            if timing_on() {
                charge_current();
            }
            CURRENT.with(|c| c.set(self.prev));
            crate::tracetree::on_phase_exit();
        }
    }
}

/// Per-phase physical I/O counters, attached to an `IoStats` handle.
/// Incremented by the same calls that bump the totals, so phase sums are
/// exactly the totals.
#[derive(Debug, Default)]
pub struct PhaseProfile {
    reads: [AtomicU64; PHASE_COUNT],
    writes: [AtomicU64; PHASE_COUNT],
}

impl PhaseProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one page read to the thread's current phase.
    #[inline]
    pub fn record_read(&self) {
        self.reads[current_phase().index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Charge one page write to the thread's current phase.
    #[inline]
    pub fn record_write(&self) {
        self.writes[current_phase().index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Capture the current per-phase counters.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let mut snap = PhaseSnapshot::default();
        for i in 0..PHASE_COUNT {
            snap.reads[i] = self.reads[i].load(Ordering::Relaxed);
            snap.writes[i] = self.writes[i].load(Ordering::Relaxed);
        }
        snap
    }

    /// Zero every counter (quiescent points only; same caveats as
    /// `IoStats::reset`).
    pub fn reset(&self) {
        for i in 0..PHASE_COUNT {
            self.reads[i].store(0, Ordering::Relaxed);
            self.writes[i].store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`PhaseProfile`], indexed by
/// [`Phase::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSnapshot {
    /// Reads per phase.
    pub reads: [u64; PHASE_COUNT],
    /// Writes per phase.
    pub writes: [u64; PHASE_COUNT],
}

impl PhaseSnapshot {
    /// Per-phase I/O since an earlier snapshot (saturating).
    pub fn since(&self, earlier: &PhaseSnapshot) -> PhaseSnapshot {
        let mut out = PhaseSnapshot::default();
        for i in 0..PHASE_COUNT {
            out.reads[i] = self.reads[i].saturating_sub(earlier.reads[i]);
            out.writes[i] = self.writes[i].saturating_sub(earlier.writes[i]);
        }
        out
    }

    /// Reads charged to `phase`.
    pub fn reads_of(&self, phase: Phase) -> u64 {
        self.reads[phase.index()]
    }

    /// Writes charged to `phase`.
    pub fn writes_of(&self, phase: Phase) -> u64 {
        self.writes[phase.index()]
    }

    /// Total I/O charged to `phase`.
    pub fn io_of(&self, phase: Phase) -> u64 {
        self.reads_of(phase) + self.writes_of(phase)
    }

    /// Reads summed over every phase (equals the `IoStats` read total
    /// when the profile was attached before counting began).
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Writes summed over every phase.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total I/O summed over every phase.
    pub fn total_io(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("no_such_phase"), None);
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
    }

    #[test]
    fn guards_nest_and_restore() {
        assert_eq!(current_phase(), Phase::Other);
        {
            let _a = PhaseGuard::enter(Phase::Sort);
            assert_eq!(current_phase(), Phase::Sort);
            {
                let _b = PhaseGuard::enter(Phase::MergeJoin);
                assert_eq!(current_phase(), Phase::MergeJoin);
            }
            assert_eq!(current_phase(), Phase::Sort);
        }
        assert_eq!(current_phase(), Phase::Other);
    }

    #[test]
    fn default_guard_never_overrides_explicit_bracket() {
        let _outer = PhaseGuard::enter(Phase::ClusterScan);
        {
            let _inner = PhaseGuard::enter_default(Phase::HeapFetch);
            assert_eq!(current_phase(), Phase::ClusterScan);
        }
        assert_eq!(current_phase(), Phase::ClusterScan);
        drop(_outer);
        {
            let _inner = PhaseGuard::enter_default(Phase::HeapFetch);
            assert_eq!(current_phase(), Phase::HeapFetch);
        }
        assert_eq!(current_phase(), Phase::Other);
    }

    #[test]
    fn profile_attributes_to_current_phase_and_sums_exactly() {
        let profile = PhaseProfile::new();
        profile.record_read(); // Other
        {
            let _g = PhaseGuard::enter(Phase::TempBuild);
            profile.record_read();
            profile.record_write();
        }
        {
            let _g = PhaseGuard::enter(Phase::Sort);
            profile.record_write();
        }
        let snap = profile.snapshot();
        assert_eq!(snap.reads_of(Phase::Other), 1);
        assert_eq!(snap.io_of(Phase::TempBuild), 2);
        assert_eq!(snap.writes_of(Phase::Sort), 1);
        assert_eq!(snap.total_reads(), 2);
        assert_eq!(snap.total_writes(), 2);
        assert_eq!(snap.total_io(), 4);
        let earlier = snap;
        profile.record_read();
        let delta = profile.snapshot().since(&earlier);
        assert_eq!(delta.total_io(), 1);
        assert_eq!(delta.reads_of(Phase::Other), 1);
        profile.reset();
        assert_eq!(profile.snapshot().total_io(), 0);
    }

    #[test]
    fn phases_are_thread_scoped() {
        let _g = PhaseGuard::enter(Phase::CacheProbe);
        std::thread::spawn(|| {
            assert_eq!(current_phase(), Phase::Other);
        })
        .join()
        .unwrap();
        assert_eq!(current_phase(), Phase::CacheProbe);
    }

    // One test owns the process-global timing switch (parallel tests
    // would race a split enable/disable pair).
    #[test]
    fn timing_partitions_wall_time_and_is_silent_when_off() {
        enable_timing(true);
        let _ = take_thread_wall(); // open a fresh window
        {
            let _g = PhaseGuard::enter(Phase::Sort);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let wall = take_thread_wall();
        assert!(
            wall[Phase::Sort.index()] >= 1_000_000,
            "sort phase must be charged its sleep: {wall:?}"
        );

        enable_timing(false);
        let _ = take_thread_wall();
        {
            let _g = PhaseGuard::enter(Phase::MergeJoin);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(take_thread_wall(), [0; PHASE_COUNT]);
    }
}
