//! Causal trace trees: per-query parent/child span trees with exact I/O
//! and wall-time attribution, exported as Chrome trace-event JSON. The
//! collector is also the engine's only per-phase ledger.
//!
//! Every [`PhaseGuard`](crate::phase::PhaseGuard) transition on the
//! traced thread opens or closes a node, and every page transfer the
//! thread drives is charged to the innermost open node. Beside the nodes
//! the collector keeps a per-phase ledger keyed by the thread's
//! *current* phase: reads and writes at each charge, and wall time,
//! charged to the outgoing phase at every transition and to the open
//! phase at [`TraceGuard::finish`]. All stamps come from the trace's one
//! start instant, so the per-phase wall sums equal
//! [`TraceTree::total_ns`] exactly, and the per-phase I/O sums equal the
//! I/O the thread drove (proptested in `crates/obs/tests/tracetree.rs`,
//! and against the pool's `IoStats` for every strategy by
//! `traced_query_matches_io_ledger`). The ledger stays exact past
//! [`MAX_TRACE_NODES`] and across guards opened before the trace began,
//! where node phases cannot.
//!
//! Tracing is thread-scoped and strictly on-demand: a trace exists only
//! between [`start`] and [`TraceGuard::finish`] on one thread. When no
//! trace is active — the default, always — a feed site costs one
//! thread-local flag load and touches no page or `IoStats` counter, so
//! the paper's I/O accounting is byte-identical with the tracer compiled
//! in (asserted in `crates/workload/tests/observability.rs`).
//!
//! The finished [`TraceTree`] renders to Chrome trace-event JSON
//! ([`TraceTree::to_chrome_json`]) — load it at `chrome://tracing` or in
//! Perfetto. `Engine::trace_query` traces one retrieve (`corstat
//! --trace` exports its deepest tree), and `Engine::explain` reads a
//! whole sequence's per-phase I/O and wall time from one trace.

use crate::export::escape_json;
use crate::phase::{current_phase, Phase, PHASE_COUNT};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cap on nodes collected per trace. A query that switches phases more
/// often than this keeps charging the innermost retained node and the
/// overflow is reported in [`TraceTree::dropped`] — the tree stays a
/// tree, memory stays bounded, and the per-phase ledger stays exact.
pub const MAX_TRACE_NODES: usize = 4096;

/// One node of a trace tree: a contiguous interval during which the
/// traced thread stayed in one phase, with the I/O it drove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceNode {
    /// The phase the thread was in for this interval.
    pub phase: Phase,
    /// Index of the parent node in [`TraceTree::nodes`]; `None` only for
    /// the root (index 0).
    pub parent: Option<usize>,
    /// Nanoseconds from trace start to this node opening.
    pub start_ns: u64,
    /// The node's duration in nanoseconds (interval end − start).
    pub dur_ns: u64,
    /// Page reads charged while this node was innermost.
    pub reads: u64,
    /// Page writes charged while this node was innermost.
    pub writes: u64,
}

/// A finished causal trace: nodes in opening order, root at index 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// Process-unique trace id.
    pub id: u64,
    /// Caller-supplied label (query / strategy name).
    pub label: String,
    /// The nodes, in the order they opened. Index 0 is the root; every
    /// other node's `parent` points at an earlier index.
    pub nodes: Vec<TraceNode>,
    /// Phase transitions not materialised as nodes because the trace hit
    /// [`MAX_TRACE_NODES`]; their I/O was charged to the innermost
    /// retained node, so node sums stay equal to the totals.
    pub dropped: u64,
    /// Total traced wall time in nanoseconds (root interval).
    pub total_ns: u64,
    ledger: Ledger,
}

/// Per-phase sums keyed by the thread's current phase, indexed by
/// [`Phase::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Ledger {
    reads: [u64; PHASE_COUNT],
    writes: [u64; PHASE_COUNT],
    wall_ns: [u64; PHASE_COUNT],
}

impl TraceTree {
    /// Page reads charged during the trace.
    pub fn total_reads(&self) -> u64 {
        self.ledger.reads.iter().sum()
    }

    /// Page writes charged during the trace.
    pub fn total_writes(&self) -> u64 {
        self.ledger.writes.iter().sum()
    }

    /// Page reads per phase the thread was in when each read was
    /// charged, indexed by [`Phase::index`].
    pub fn reads_by_phase(&self) -> [u64; PHASE_COUNT] {
        self.ledger.reads
    }

    /// Page writes per phase, indexed by [`Phase::index`].
    pub fn writes_by_phase(&self) -> [u64; PHASE_COUNT] {
        self.ledger.writes
    }

    /// Wall time in nanoseconds per phase the thread was in, indexed by
    /// [`Phase::index`]. Sums to [`total_ns`](Self::total_ns) exactly.
    pub fn wall_by_phase(&self) -> [u64; PHASE_COUNT] {
        self.ledger.wall_ns
    }

    /// Check the tree is well-formed: a single root at index 0, every
    /// parent link pointing at an earlier node, and every child interval
    /// contained in its parent's.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("trace has no nodes".into());
        }
        if self.nodes[0].parent.is_some() {
            return Err("root node has a parent".into());
        }
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            let p = match n.parent {
                Some(p) if p < i => p,
                Some(p) => return Err(format!("node {i} has forward parent {p}")),
                None => return Err(format!("node {i} is a second root")),
            };
            let parent = &self.nodes[p];
            if n.start_ns < parent.start_ns
                || n.start_ns + n.dur_ns > parent.start_ns + parent.dur_ns
            {
                return Err(format!(
                    "node {i} interval [{}, {}] escapes parent {p} [{}, {}]",
                    n.start_ns,
                    n.start_ns + n.dur_ns,
                    parent.start_ns,
                    parent.start_ns + parent.dur_ns
                ));
            }
        }
        Ok(())
    }

    /// Render as Chrome trace-event JSON (one complete `"ph":"X"` event
    /// per node, microsecond timestamps) — loadable in Perfetto or
    /// `chrome://tracing`. The root event carries the trace label; every
    /// event's `args` carries the node's reads/writes and tree links.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.nodes.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = if i == 0 {
                format!("{}: {}", escape_json(&self.label), n.phase.name())
            } else {
                n.phase.name().to_string()
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"cor\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"trace_id\":{},\"node\":{},\
                 \"parent\":{},\"reads\":{},\"writes\":{}}}}}",
                name,
                n.start_ns as f64 / 1_000.0,
                n.dur_ns as f64 / 1_000.0,
                self.id,
                i,
                n.parent.map_or(-1i64, |p| p as i64),
                n.reads,
                n.writes,
            ));
        }
        out.push_str(&format!(
            "],\"trace_id\":{},\"dropped\":{}}}",
            self.id, self.dropped
        ));
        out
    }
}

/// A stack entry: the open node's index, and whether this entry owns
/// closing it (overflow entries alias the retained innermost node and
/// own nothing).
struct StackEntry {
    node: usize,
    owns: bool,
}

struct Collector {
    id: u64,
    label: String,
    t0: Instant,
    nodes: Vec<TraceNode>,
    stack: Vec<StackEntry>,
    dropped: u64,
    ledger: Ledger,
    /// Nanoseconds from `t0` to the last phase transition.
    last_switch_ns: u64,
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

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Whether a trace is being collected on *this* thread. One thread-local
/// flag load — the entire cost of a feed site while no trace runs.
#[inline]
pub fn thread_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Begin collecting a trace on this thread. The root node opens in the
/// thread's current phase; phase transitions and page transfers feed the
/// tree until [`TraceGuard::finish`]. Returns an inert guard (finish
/// yields `None`) if a trace is already active on this thread — traces
/// do not nest.
pub fn start(label: &str) -> TraceGuard {
    if thread_active() {
        return TraceGuard { started: false };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let mut nodes = Vec::with_capacity(64);
    nodes.push(TraceNode {
        phase: current_phase(),
        parent: None,
        start_ns: 0,
        dur_ns: 0,
        reads: 0,
        writes: 0,
    });
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            id,
            label: label.to_string(),
            t0: Instant::now(),
            nodes,
            stack: vec![StackEntry {
                node: 0,
                owns: true,
            }],
            dropped: 0,
            ledger: Ledger::default(),
            last_switch_ns: 0,
        });
    });
    ACTIVE.with(|a| a.set(true));
    TraceGuard { started: true }
}

/// RAII handle for an in-flight trace. [`finish`](TraceGuard::finish)
/// closes it and returns the tree; dropping without finishing discards
/// the collection.
#[must_use = "a trace is collected only until the guard is finished or dropped"]
pub struct TraceGuard {
    started: bool,
}

impl TraceGuard {
    /// Close every open node, charge the open interval to the current
    /// phase, and return the finished tree. `None` when this guard never
    /// started a trace (nested [`start`]).
    pub fn finish(mut self) -> Option<TraceTree> {
        if !self.started {
            return None;
        }
        self.started = false;
        ACTIVE.with(|a| a.set(false));
        let mut col = COLLECTOR.with(|c| c.borrow_mut().take())?;
        let total_ns = col.switch();
        for entry in col.stack.iter().rev() {
            if entry.owns {
                let n = &mut col.nodes[entry.node];
                n.dur_ns = total_ns.saturating_sub(n.start_ns);
            }
        }
        Some(TraceTree {
            id: col.id,
            label: col.label,
            nodes: col.nodes,
            dropped: col.dropped,
            total_ns,
            ledger: col.ledger,
        })
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
/// before the thread's phase changes: the traced thread is switching
/// into `phase` — charge the outgoing phase its wall time and open a
/// child of the innermost node. No-op (one flag load) when no trace is
/// active on this thread.
#[inline]
pub fn on_phase_enter(phase: Phase) {
    if !thread_active() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let now = col.switch();
            let top = col.stack.last().expect("root entry is never popped").node;
            if col.nodes.len() >= MAX_TRACE_NODES {
                col.dropped += 1;
                col.stack.push(StackEntry {
                    node: top,
                    owns: false,
                });
                return;
            }
            let idx = col.nodes.len();
            col.nodes.push(TraceNode {
                phase,
                parent: Some(top),
                start_ns: now,
                dur_ns: 0,
                reads: 0,
                writes: 0,
            });
            col.stack.push(StackEntry {
                node: idx,
                owns: true,
            });
        }
    });
}

/// Feed site for `PhaseGuard`'s drop, called before the thread's phase
/// is restored: charge the outgoing phase its wall time and close the
/// innermost node. Transitions that happened before the trace started
/// unwind against the root, which closes only at [`TraceGuard::finish`];
/// their wall time is still charged.
#[inline]
pub fn on_phase_exit() {
    if !thread_active() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let end = col.switch();
            if col.stack.len() <= 1 {
                return;
            }
            let entry = col.stack.pop().expect("len checked above");
            if entry.owns {
                let n = &mut col.nodes[entry.node];
                n.dur_ns = end.saturating_sub(n.start_ns);
            }
        }
    });
}

/// Feed site for `IoStats::record_read`: charge one page read to the
/// innermost open node and to the current phase. No-op (one flag load)
/// when no trace is active.
#[inline]
pub fn charge_read() {
    if !thread_active() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let top = col.stack.last().expect("root entry is never popped").node;
            col.nodes[top].reads += 1;
            col.ledger.reads[current_phase().index()] += 1;
        }
    });
}

/// Feed site for `IoStats::record_write`: charge one page write to the
/// innermost open node and to the current phase. No-op (one flag load)
/// when no trace is active.
#[inline]
pub fn charge_write() {
    if !thread_active() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let top = col.stack.last().expect("root entry is never popped").node;
            col.nodes[top].writes += 1;
            col.ledger.writes[current_phase().index()] += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseGuard;

    #[test]
    fn no_trace_means_feed_sites_are_inert() {
        assert!(!thread_active());
        on_phase_enter(Phase::Sort);
        on_phase_exit();
        charge_read();
        charge_write();
        assert!(!thread_active());
    }

    #[test]
    fn guards_build_a_tree_with_exact_io() {
        let guard = start("q1");
        charge_read(); // root, Other
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
        let tree = guard.finish().expect("trace started");
        tree.validate().expect("well-formed");
        assert_eq!(tree.nodes.len(), 3);
        assert_eq!(tree.nodes[0].phase, Phase::Other);
        assert_eq!(tree.nodes[1].phase, Phase::IndexDescent);
        assert_eq!(tree.nodes[1].parent, Some(0));
        assert_eq!(tree.nodes[2].phase, Phase::HeapFetch);
        assert_eq!(tree.nodes[2].parent, Some(1));
        assert_eq!(tree.nodes[0].reads, 1);
        assert_eq!(tree.nodes[1].reads, 3);
        assert_eq!(tree.nodes[2].reads, 1);
        assert_eq!(tree.nodes[2].writes, 1);
        assert_eq!(tree.total_reads(), 5);
        assert_eq!(tree.total_writes(), 1);
        assert_eq!(tree.dropped, 0);
        assert!(!thread_active());
    }

    #[test]
    fn phase_sums_match_by_phase_accessors() {
        let guard = start("q2");
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
        let tree = guard.finish().unwrap();
        let reads = tree.reads_by_phase();
        let writes = tree.writes_by_phase();
        assert_eq!(reads[Phase::MergeJoin.index()], 2);
        assert_eq!(writes[Phase::Sort.index()], 1);
        assert_eq!(reads.iter().sum::<u64>(), tree.total_reads());
        // Two sibling MergeJoin brackets become two distinct nodes.
        assert_eq!(
            tree.nodes
                .iter()
                .filter(|n| n.phase == Phase::MergeJoin)
                .count(),
            2
        );
    }

    #[test]
    fn traces_do_not_nest() {
        let outer = start("outer");
        let inner = start("inner");
        assert!(inner.finish().is_none());
        assert!(
            thread_active(),
            "inner finish must not kill the outer trace"
        );
        let tree = outer.finish().unwrap();
        assert_eq!(tree.label, "outer");
        assert!(!thread_active());
    }

    #[test]
    fn dropping_the_guard_discards_the_trace() {
        {
            let _g = start("discarded");
            charge_read();
        }
        assert!(!thread_active());
        // A fresh trace starts clean.
        let g = start("fresh");
        let tree = g.finish().unwrap();
        assert_eq!(tree.total_reads(), 0);
    }

    #[test]
    fn overflow_keeps_attribution_exact() {
        let guard = start("overflow");
        for _ in 0..MAX_TRACE_NODES + 10 {
            let _g = PhaseGuard::enter(Phase::HeapFetch);
            charge_read();
        }
        let tree = guard.finish().unwrap();
        tree.validate().expect("still well-formed");
        assert!(tree.nodes.len() <= MAX_TRACE_NODES);
        assert_eq!(tree.dropped, 11); // 4095 children fit under the root
        assert_eq!(tree.total_reads(), (MAX_TRACE_NODES + 10) as u64);
        // The dropped transitions' reads land on the root node, but the
        // ledger files them under the phase the thread was in.
        let reads = tree.reads_by_phase();
        assert_eq!(
            reads[Phase::HeapFetch.index()],
            (MAX_TRACE_NODES + 10) as u64
        );
        assert_eq!(reads[Phase::Other.index()], 0);
    }

    #[test]
    fn pre_trace_guards_unwind_harmlessly() {
        let outer = PhaseGuard::enter(Phase::ClusterScan);
        let guard = start("straddle");
        charge_read();
        drop(outer); // exits a transition recorded before the trace began
        charge_read(); // still charged to the root node
        let tree = guard.finish().unwrap();
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.nodes[0].phase, Phase::ClusterScan);
        assert_eq!(tree.nodes[0].reads, 2);
        let reads = tree.reads_by_phase();
        assert_eq!(reads[Phase::ClusterScan.index()], 1);
        assert_eq!(reads[Phase::Other.index()], 1);
    }

    #[test]
    fn wall_time_partitions_the_trace_exactly() {
        let guard = start("wall");
        {
            let _g = PhaseGuard::enter(Phase::Sort);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let tree = guard.finish().unwrap();
        let wall = tree.wall_by_phase();
        assert!(
            wall[Phase::Sort.index()] >= 1_000_000,
            "sort phase must be charged its sleep: {wall:?}"
        );
        assert_eq!(wall.iter().sum::<u64>(), tree.total_ns);
    }

    #[test]
    fn chrome_json_is_wellformed() {
        let guard = start("q\"3\"");
        {
            let _a = PhaseGuard::enter(Phase::TempBuild);
            charge_write();
        }
        let tree = guard.finish().unwrap();
        let json = tree.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("q\\\"3\\\""));
        assert!(json.contains("\"name\":\"temp_build\""));
        assert!(json.contains(&format!("\"trace_id\":{}", tree.id)));
        assert!(json.ends_with("}"));
        // Balanced braces/brackets outside strings — cheap structural check.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = start("a").finish().unwrap();
        let b = start("b").finish().unwrap();
        assert_ne!(a.id, b.id);
    }
}
