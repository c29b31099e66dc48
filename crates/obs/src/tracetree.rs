//! The phase ledger: page reads, page writes and wall time per phase for
//! one traced stretch of a thread's work — the engine's only per-phase
//! ledger, read by `Engine::explain`.
//!
//! While a trace is active, every page transfer the thread drives is
//! charged to the thread's *current* phase, and every
//! [`PhaseGuard`](crate::phase::PhaseGuard) transition charges the wall
//! time since the previous transition to the outgoing phase; the open
//! interval is charged at [`TraceGuard::finish`]. All stamps come from
//! the trace's one start instant, so the per-phase wall sums equal
//! [`PhaseLedger::total_ns`] exactly, and the per-phase I/O sums equal
//! the I/O the thread drove (proptested in `crates/obs/tests/tracetree.rs`,
//! and against the pool's `IoStats` for every strategy by
//! `traced_query_matches_io_ledger`). Guards opened before the trace
//! began unwind harmlessly: their exits are charged like any other
//! transition.
//!
//! Tracing is thread-scoped and strictly on-demand: a trace exists only
//! between [`start`] and [`TraceGuard::finish`] on one thread. When no
//! trace is active — the default, always — a feed site costs one
//! thread-local flag load and touches no page or `IoStats` counter, so
//! the paper's I/O accounting is byte-identical with the tracer compiled
//! in (asserted in `crates/workload/tests/observability.rs`).

use crate::phase::{current_phase, PHASE_COUNT};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// A finished trace: per-phase sums keyed by the thread's current phase,
/// each array indexed by [`Phase::index`](crate::Phase::index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseLedger {
    /// Total traced wall time in nanoseconds.
    pub total_ns: u64,
    reads: [u64; PHASE_COUNT],
    writes: [u64; PHASE_COUNT],
    wall_ns: [u64; PHASE_COUNT],
}

impl PhaseLedger {
    /// Page reads charged during the trace.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Page writes charged during the trace.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Page reads per phase the thread was in when each read was
    /// charged.
    pub fn reads_by_phase(&self) -> [u64; PHASE_COUNT] {
        self.reads
    }

    /// Page writes per phase.
    pub fn writes_by_phase(&self) -> [u64; PHASE_COUNT] {
        self.writes
    }

    /// Wall time in nanoseconds per phase the thread was in. Sums to
    /// [`total_ns`](Self::total_ns) exactly.
    pub fn wall_by_phase(&self) -> [u64; PHASE_COUNT] {
        self.wall_ns
    }
}

struct Collector {
    t0: Instant,
    /// Nanoseconds from `t0` to the last phase transition.
    last_switch_ns: u64,
    ledger: PhaseLedger,
}

impl Collector {
    /// Stamp a phase transition: charge the interval since the last one
    /// to the outgoing (still current) phase and return the stamp.
    fn switch(&mut self) -> u64 {
        let now = self.t0.elapsed().as_nanos() as u64;
        let outgoing = current_phase().index();
        self.ledger.wall_ns[outgoing] += now.saturating_sub(self.last_switch_ns);
        self.last_switch_ns = now;
        now
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's collector, if a trace is active. Kept out of
/// line so a feed site inlined into `IoStats::record_read` (and through
/// it into the buffer pool's pin path) or into `PhaseGuard` stays one
/// flag test and a call.
#[inline(never)]
fn with_collector(f: impl FnOnce(&mut Collector)) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            f(col);
        }
    });
}

/// Whether a trace is being collected on *this* thread. One thread-local
/// flag load — the entire cost of a feed site while no trace runs.
#[inline]
pub fn thread_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Begin collecting a trace on this thread; phase transitions and page
/// transfers feed its ledger until [`TraceGuard::finish`]. Returns an
/// inert guard (finish yields `None`) if a trace is already active on
/// this thread — traces do not nest.
pub fn start() -> TraceGuard {
    if thread_active() {
        return TraceGuard { started: false };
    }
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            t0: Instant::now(),
            last_switch_ns: 0,
            ledger: PhaseLedger::default(),
        });
    });
    ACTIVE.with(|a| a.set(true));
    TraceGuard { started: true }
}

/// RAII handle for an in-flight trace. [`finish`](TraceGuard::finish)
/// closes it and returns the ledger; dropping without finishing discards
/// the collection.
#[must_use = "a trace is collected only until the guard is finished or dropped"]
pub struct TraceGuard {
    started: bool,
}

impl TraceGuard {
    /// Charge the open interval to the current phase and return the
    /// finished ledger. `None` when this guard never started a trace
    /// (nested [`start`]).
    pub fn finish(mut self) -> Option<PhaseLedger> {
        if !self.started {
            return None;
        }
        self.started = false;
        ACTIVE.with(|a| a.set(false));
        let mut col = COLLECTOR.with(|c| c.borrow_mut().take())?;
        col.ledger.total_ns = col.switch();
        Some(col.ledger)
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.started {
            ACTIVE.with(|a| a.set(false));
            COLLECTOR.with(|c| *c.borrow_mut() = None);
        }
    }
}

/// Feed site for [`PhaseGuard::enter`](crate::phase::PhaseGuard), called
/// before the thread's phase changes: charge the outgoing phase its wall
/// time. No-op (one flag load) when no trace is active on this thread.
#[inline]
pub fn on_phase_enter() {
    if !thread_active() {
        return;
    }
    with_collector(|col| {
        col.switch();
    });
}

/// Feed site for `PhaseGuard`'s drop, called before the thread's phase
/// is restored: charge the outgoing phase its wall time. No-op (one flag
/// load) when no trace is active on this thread.
#[inline]
pub fn on_phase_exit() {
    if !thread_active() {
        return;
    }
    with_collector(|col| {
        col.switch();
    });
}

/// Feed site for `IoStats::record_read`: charge one page read to the
/// current phase. No-op (one flag load) when no trace is active.
#[inline]
pub fn charge_read() {
    if !thread_active() {
        return;
    }
    with_collector(|col| col.ledger.reads[current_phase().index()] += 1);
}

/// Feed site for `IoStats::record_write`: charge one page write to the
/// current phase. No-op (one flag load) when no trace is active.
#[inline]
pub fn charge_write() {
    if !thread_active() {
        return;
    }
    with_collector(|col| col.ledger.writes[current_phase().index()] += 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{Phase, PhaseGuard};

    #[test]
    fn no_trace_means_feed_sites_are_inert() {
        assert!(!thread_active());
        on_phase_enter();
        on_phase_exit();
        charge_read();
        charge_write();
        assert!(!thread_active());
    }

    #[test]
    fn guards_charge_exact_io_to_the_current_phase() {
        let guard = start();
        charge_read(); // Other
        {
            let _a = PhaseGuard::enter(Phase::IndexDescent);
            charge_read();
            charge_read();
            {
                let _b = PhaseGuard::enter(Phase::HeapFetch);
                charge_read();
                charge_write();
            }
            charge_read(); // back in IndexDescent
        }
        let ledger = guard.finish().expect("trace started");
        let (reads, writes) = (ledger.reads_by_phase(), ledger.writes_by_phase());
        assert_eq!(reads[Phase::Other.index()], 1);
        assert_eq!(reads[Phase::IndexDescent.index()], 3);
        assert_eq!(reads[Phase::HeapFetch.index()], 1);
        assert_eq!(writes[Phase::HeapFetch.index()], 1);
        assert_eq!(ledger.total_reads(), 5);
        assert_eq!(ledger.total_writes(), 1);
        assert!(!thread_active());
    }

    #[test]
    fn phase_sums_match_by_phase_accessors() {
        let guard = start();
        {
            let _a = PhaseGuard::enter(Phase::Sort);
            charge_write();
            {
                let _b = PhaseGuard::enter(Phase::MergeJoin);
                charge_read();
            }
            {
                let _c = PhaseGuard::enter(Phase::MergeJoin);
                charge_read();
            }
        }
        let ledger = guard.finish().unwrap();
        let reads = ledger.reads_by_phase();
        let writes = ledger.writes_by_phase();
        assert_eq!(reads[Phase::MergeJoin.index()], 2);
        assert_eq!(writes[Phase::Sort.index()], 1);
        assert_eq!(reads.iter().sum::<u64>(), ledger.total_reads());
    }

    #[test]
    fn traces_do_not_nest() {
        let outer = start();
        let inner = start();
        assert!(inner.finish().is_none());
        assert!(
            thread_active(),
            "inner finish must not kill the outer trace"
        );
        charge_read();
        let ledger = outer.finish().unwrap();
        assert_eq!(ledger.total_reads(), 1, "the outer trace kept collecting");
        assert!(!thread_active());
    }

    #[test]
    fn dropping_the_guard_discards_the_trace() {
        {
            let _g = start();
            charge_read();
        }
        assert!(!thread_active());
        // A fresh trace starts clean.
        let g = start();
        let ledger = g.finish().unwrap();
        assert_eq!(ledger.total_reads(), 0);
    }

    #[test]
    fn pre_trace_guards_unwind_harmlessly() {
        let outer = PhaseGuard::enter(Phase::ClusterScan);
        let guard = start();
        charge_read();
        drop(outer); // exits a transition recorded before the trace began
        charge_read();
        let ledger = guard.finish().unwrap();
        let reads = ledger.reads_by_phase();
        assert_eq!(reads[Phase::ClusterScan.index()], 1);
        assert_eq!(reads[Phase::Other.index()], 1);
        assert_eq!(ledger.wall_by_phase().iter().sum::<u64>(), ledger.total_ns);
    }

    #[test]
    fn wall_time_partitions_the_trace_exactly() {
        let guard = start();
        {
            let _g = PhaseGuard::enter(Phase::Sort);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let ledger = guard.finish().unwrap();
        let wall = ledger.wall_by_phase();
        assert!(
            wall[Phase::Sort.index()] >= 1_000_000,
            "sort phase must be charged its sleep: {wall:?}"
        );
        assert_eq!(wall.iter().sum::<u64>(), ledger.total_ns);
    }
}
