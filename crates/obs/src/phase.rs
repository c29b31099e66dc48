//! Thread-scoped phase attribution for physical page I/O.
//!
//! The paper's yardstick is *how many* pages a query transfers; this
//! module answers *where they go*. A strategy (or an access method on its
//! behalf) brackets a region of work with a [`PhaseGuard`]; while the
//! guard is alive, the thread's [`current_phase`] is that phase. The
//! ledger that counts pages and wall time per phase is the trace
//! collector ([`tracetree`](crate::tracetree)): it charges each page
//! transfer to the phase current when the transfer is counted, and each
//! transition's elapsed wall time to the outgoing phase, so per-phase
//! sums always equal the totals (with [`Phase::Other`] as the catch-all
//! for unbracketed work).
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
//! A guard is two thread-local `Cell` operations plus the trace
//! collector's one flag load, so the paper's I/O accounting is
//! byte-identical whether or not anything is traced.

use std::cell::Cell;

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
    /// Pages read while descending an index, root to leaf. A B-tree
    /// point lookup searches its leaf under the descent's own pin, so that
    /// leaf is charged here.
    IndexDescent = 1,
    /// Leaf/data pages fetched to produce records (base-relation access):
    /// heap pages, and B-tree leaves reached through a leaf hint, a leaf
    /// visit or a range walk.
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
    #[cfg(test)]
    fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The phase's index into per-phase arrays (`0..PHASE_COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }
}

thread_local! {
    static CURRENT: Cell<Phase> = const { Cell::new(Phase::Other) };
}

/// The phase currently charged on this thread.
pub fn current_phase() -> Phase {
    CURRENT.with(|c| c.get())
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
            crate::tracetree::on_phase_enter();
            CURRENT.with(|c| c.set(phase));
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
            crate::tracetree::on_phase_exit();
            CURRENT.with(|c| c.set(self.prev));
        }
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
    fn phases_are_thread_scoped() {
        let _g = PhaseGuard::enter(Phase::CacheProbe);
        std::thread::spawn(|| {
            assert_eq!(current_phase(), Phase::Other);
        })
        .join()
        .unwrap();
        assert_eq!(current_phase(), Phase::CacheProbe);
    }
}
