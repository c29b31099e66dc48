//! Wait/contention profiling: timed waits on the engine's blocking
//! points, fed into streaming histograms.
//!
//! Cumulative counters say how much work happened; the wait profile says
//! how long threads *stood still* and where. Four wait classes cover the
//! places the storage tiers can block today — exactly the queues the
//! ROADMAP's async-I/O and latch-crabbing items must measure before and
//! after they land:
//!
//! * [`WaitClass::ShardLock`] — acquiring a buffer-pool stripe mutex in
//!   `pin`/`allocate_page` (lock striping's residual contention);
//! * [`WaitClass::FrameStall`] — stalled inside the pool because every
//!   candidate frame was pinned, waiting for a concurrent unpin before
//!   either finding a victim or giving up with `NoFreeFrames`;
//! * [`WaitClass::WalLock`] — acquiring the WAL mutex (the group-commit
//!   queue: appenders serialize here);
//! * [`WaitClass::WalFsync`] — inside the physical log sync that makes a
//!   group of commits durable;
//! * [`WaitClass::AioCompletion`] — a harvest blocked on an in-flight
//!   `cor-aio` run that has not completed yet.
//!
//! Like [`flight`](crate::flight), the profile
//! is a process global behind an [`AtomicBool`]: a feed site costs one
//! relaxed load while disabled (the default), and nothing here touches a
//! page or an `IoStats` counter, so the paper's I/O accounting is
//! byte-identical either way (asserted in
//! `crates/workload/tests/observability.rs`). While enabled, a wait is
//! two monotonic-clock reads plus one [`Histogram::record`].
//!
//! The engine folds the profile into its metrics report as the
//! `cor_wait_*` families (see [`WaitReport::push_to`]) only while enabled, keeping
//! disabled-state exports byte-identical to pre-wait ones.

use crate::hist::{HistSnapshot, Histogram};
use crate::registry::{labels, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of distinct wait classes.
pub const WAIT_CLASSES: usize = 5;

/// Where a thread waited. Discriminants are stable (they index the
/// profile's histogram array and appear in exported labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WaitClass {
    /// Buffer-pool stripe mutex acquisition (`pin` / `allocate_page`).
    ShardLock = 0,
    /// All candidate frames pinned: the wait for a concurrent unpin,
    /// whether it ended in a victim or a `NoFreeFrames` refusal.
    FrameStall = 1,
    /// WAL mutex acquisition — the group-commit queue.
    WalLock = 2,
    /// The physical log sync (fsync) making appended records durable.
    WalFsync = 3,
    /// Blocked harvesting an in-flight `cor-aio` run on demand access.
    AioCompletion = 4,
}

impl WaitClass {
    /// Every class, in discriminant order.
    pub const ALL: [WaitClass; WAIT_CLASSES] = [
        WaitClass::ShardLock,
        WaitClass::FrameStall,
        WaitClass::WalLock,
        WaitClass::WalFsync,
        WaitClass::AioCompletion,
    ];

    /// Stable snake_case name (the `class` label in exports).
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::ShardLock => "shard_lock",
            WaitClass::FrameStall => "frame_stall",
            WaitClass::WalLock => "wal_lock",
            WaitClass::WalFsync => "wal_fsync",
            WaitClass::AioCompletion => "aio_completion",
        }
    }

    /// The class's index into profile arrays (`0..WAIT_CLASSES`).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The live profile: one streaming histogram of wait nanoseconds per
/// class. All-atomic; feed sites never block on the profile itself.
pub struct WaitProfile {
    hists: [Histogram; WAIT_CLASSES],
}

impl Default for WaitProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        WaitProfile {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Record one wait of `ns` nanoseconds under `class`.
    #[inline]
    pub fn record(&self, class: WaitClass, ns: u64) {
        self.hists[class.index()].record(ns);
    }

    /// The per-class histograms, captured.
    pub fn report(&self) -> WaitReport {
        WaitReport {
            classes: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }

    /// Zero every histogram (quiescent points only).
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
    }
}

/// A point-in-time copy of the profile, indexed by [`WaitClass::index`].
#[derive(Debug, Clone)]
pub struct WaitReport {
    /// One wait-time histogram (nanoseconds) per class.
    pub classes: [HistSnapshot; WAIT_CLASSES],
}

impl WaitReport {
    /// The histogram for `class`.
    pub fn of(&self, class: WaitClass) -> &HistSnapshot {
        &self.classes[class.index()]
    }

    /// Waits recorded across every class.
    pub fn total_waits(&self) -> u64 {
        self.classes.iter().map(HistSnapshot::count).sum()
    }

    /// Nanoseconds waited across every class.
    pub fn total_wait_ns(&self) -> u64 {
        self.classes.iter().map(HistSnapshot::sum).sum()
    }

    /// Append the `cor_wait_*` families to a metrics snapshot, one
    /// labeled sample per class: `cor_wait_count_total` /
    /// `cor_wait_ns_total` counters plus the full `cor_wait_ns`
    /// histogram.
    pub fn push_to(&self, snapshot: &mut MetricsSnapshot) {
        for class in WaitClass::ALL {
            let lbls = labels(&[("class", class.name())]);
            let h = self.of(class);
            snapshot.push_counter(
                "cor_wait_count_total",
                "waits recorded per blocking point",
                lbls.clone(),
                h.count(),
            );
            snapshot.push_counter(
                "cor_wait_ns_total",
                "nanoseconds spent waiting per blocking point",
                lbls.clone(),
                h.sum(),
            );
            snapshot.push_histogram(
                "cor_wait_ns",
                "wait-time distribution per blocking point",
                lbls,
                h.clone(),
            );
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<WaitProfile> = OnceLock::new();

/// Whether wait profiling is on. One relaxed load — the entire cost of a
/// feed site while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn wait profiling on or off process-wide. The profile keeps its
/// contents across off/on transitions; [`WaitProfile::reset`] via
/// [`global`] starts a fresh window.
pub fn enable(on: bool) {
    if on {
        let _ = global();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global profile (created on first use).
pub fn global() -> &'static WaitProfile {
    GLOBAL.get_or_init(WaitProfile::new)
}

/// Record a wait in the global profile — the feed-site entry point for
/// sites that already measured their own interval. A no-op costing one
/// relaxed load while disabled.
#[inline]
pub fn record(class: WaitClass, ns: u64) {
    if enabled() {
        global().record(class, ns);
    }
}

/// Run `f`, timing it as a wait under `class` when profiling is on.
/// The disabled path runs `f` directly with zero clock reads.
#[inline]
pub fn timed<R>(class: WaitClass, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    global().record(class, t0.elapsed().as_nanos() as u64);
    r
}

/// The global profile's current report.
pub fn report() -> WaitReport {
    global().report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_are_stable_and_indexed() {
        assert_eq!(WaitClass::ALL.len(), WAIT_CLASSES);
        for (i, c) in WaitClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(WaitClass::ShardLock.name(), "shard_lock");
        assert_eq!(WaitClass::WalFsync.name(), "wal_fsync");
        assert_eq!(WaitClass::AioCompletion.name(), "aio_completion");
    }

    #[test]
    fn profile_records_per_class() {
        let p = WaitProfile::new();
        p.record(WaitClass::ShardLock, 100);
        p.record(WaitClass::ShardLock, 200);
        p.record(WaitClass::WalFsync, 5_000);
        let r = p.report();
        assert_eq!(r.of(WaitClass::ShardLock).count(), 2);
        assert_eq!(r.of(WaitClass::ShardLock).sum(), 300);
        assert_eq!(r.of(WaitClass::WalFsync).count(), 1);
        assert_eq!(r.of(WaitClass::FrameStall).count(), 0);
        assert_eq!(r.total_waits(), 3);
        assert_eq!(r.total_wait_ns(), 5_300);
        p.reset();
        assert_eq!(p.report().total_waits(), 0);
    }

    #[test]
    fn report_pushes_all_families_per_class() {
        let p = WaitProfile::new();
        p.record(WaitClass::WalLock, 42);
        let mut snap = MetricsSnapshot::default();
        p.report().push_to(&mut snap);
        for name in ["cor_wait_count_total", "cor_wait_ns_total", "cor_wait_ns"] {
            let fam = snap
                .family(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(fam.samples.len(), WAIT_CLASSES, "{name}");
        }
        snap.validate(&["cor_wait_count_total", "cor_wait_ns_total", "cor_wait_ns"])
            .expect("wait families are structurally valid");
    }

    #[test]
    fn timed_is_inert_when_disabled() {
        // The global switch is shared; this test only asserts the
        // disabled path (other tests must not enable it concurrently).
        assert!(!enabled());
        let before = report().total_waits();
        let v = timed(WaitClass::FrameStall, || 7);
        assert_eq!(v, 7);
        record(WaitClass::FrameStall, 99);
        assert_eq!(report().total_waits(), before);
    }
}
