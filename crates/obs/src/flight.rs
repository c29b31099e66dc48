//! Flight recorder: a bounded, structured black-box event journal.
//!
//! Cumulative counters say *how much* happened; the flight recorder says
//! *what the engine was doing just now*. It keeps the last N coarse
//! lifecycle events — engine open/close, checkpoint, WAL append/poison,
//! buffer-pool `NoFreeFrames`, injected faults — in a lock-free seqlock
//! ring, so recording never blocks, never allocates, and costs one relaxed
//! [`AtomicBool`] load when the recorder is off (the default).
//!
//! Consumers:
//!
//! * `crashtest` enables the recorder and attaches a JSON dump of the
//!   last events to every crash point — each injected fault carries its
//!   black box.
//! * [`install_panic_dump`] chains a panic hook that writes the dump to
//!   stderr, so an unexpected abort still tells its story.
//!
//! Events are fixed-size (`kind` + timestamp + three `u64` args whose
//! meaning the `kind` owns); anything needing strings or nesting belongs
//! in a report of its own, not here.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

/// What a flight-recorder event records. The codes only live in the
/// ring's slots: dumps carry [`name`](Self::name)s, so kinds may be added,
/// removed or renumbered freely. Codes run contiguously from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FlightKind {
    /// An engine instance opened (a = catalog epoch or 0).
    EngineOpen = 1,
    /// An engine instance closed cleanly (a = catalog epoch or 0).
    EngineClose = 2,
    /// A WAL checkpoint completed (a = begin LSN, b = redo LSN).
    Checkpoint = 3,
    /// A WAL record was appended (a = LSN, b = record kind tag).
    WalAppend = 4,
    /// The WAL poisoned itself after a storage failure (a = next LSN).
    WalPoison = 5,
    /// The buffer pool found every candidate frame pinned
    /// (a = shard, b = page id, c = pinned frames).
    NoFreeFrames = 6,
    /// The fault-injection harness armed or fired a fault
    /// (a = nth write, b = mode tag).
    FaultInjected = 7,
    /// A free-form progress marker (a/b/c owned by the caller).
    PointMark = 8,
    /// A `cor-aio` submission found the queue saturated: more runs were
    /// outstanding than the configured depth, so the new runs waited in
    /// the backend queue (a = queue depth, b = backlog at submit,
    /// c = runs in the submission).
    AioSaturated = 9,
}

impl FlightKind {
    /// Every kind, in code order.
    pub const ALL: [FlightKind; 9] = [
        FlightKind::EngineOpen,
        FlightKind::EngineClose,
        FlightKind::Checkpoint,
        FlightKind::WalAppend,
        FlightKind::WalPoison,
        FlightKind::NoFreeFrames,
        FlightKind::FaultInjected,
        FlightKind::PointMark,
        FlightKind::AioSaturated,
    ];

    /// Stable snake_case name for dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::EngineOpen => "engine_open",
            FlightKind::EngineClose => "engine_close",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::WalAppend => "wal_append",
            FlightKind::WalPoison => "wal_poison",
            FlightKind::NoFreeFrames => "no_free_frames",
            FlightKind::FaultInjected => "fault_injected",
            FlightKind::PointMark => "point_mark",
            FlightKind::AioSaturated => "aio_saturated",
        }
    }

    /// The kind for a code, if valid.
    pub fn from_code(code: u64) -> Option<FlightKind> {
        FlightKind::ALL.get(code.checked_sub(1)? as usize).copied()
    }
}

/// One recorded event: the kind, nanoseconds since the recorder was
/// created, and three argument words whose meaning the kind owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// What happened.
    pub kind: FlightKind,
    /// Nanoseconds since recorder creation (process-relative clock).
    pub t_ns: u64,
    /// First argument word (see [`FlightKind`]).
    pub a: u64,
    /// Second argument word.
    pub b: u64,
    /// Third argument word.
    pub c: u64,
}

/// One ring slot: an event's words, published under a seqlock word.
#[derive(Default)]
struct Slot {
    /// `2*ticket + 1` while the owning writer is mid-write, `2*ticket + 2`
    /// once the event for `ticket` is published, 0 when never written.
    seq: AtomicU64,
    kind: AtomicU64,
    t_ns: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

/// The recorder: a fixed ring of the most recent events plus the epoch
/// their timestamps are relative to. A writer claims a slot with one
/// `fetch_add` ticket and publishes through the slot's seqlock word, so
/// recording is wait-free; a snapshot that races a writer on a slot skips
/// that event rather than return it torn.
pub struct Flight {
    slots: Vec<Slot>,
    next: AtomicU64,
    epoch: Instant,
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flight")
            .field("recorded", &self.recorded())
            .field("capacity", &self.slots.len())
            .finish()
    }
}

/// Default ring depth: enough to cover a crashtest point's workload
/// window with room for WAL chatter.
pub const DEFAULT_CAPACITY: usize = 256;

impl Flight {
    /// A recorder retaining the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        Flight {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            next: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Record an event. Wait-free; overwrites the oldest when full.
    pub fn record(&self, kind: FlightKind, a: u64, b: u64, c: u64) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Seqlock write: odd = in progress, even = published. The fence
        // keeps the word stores from moving above the odd mark.
        slot.seq.store(2 * ticket + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Events recorded over the recorder's lifetime (may exceed capacity).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first. Events being overwritten while
    /// the snapshot runs are skipped rather than returned torn.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let cap = self.slots.len() as u64;
        let end = self.next.load(Ordering::Acquire);
        let start = end.saturating_sub(cap);
        let mut out = Vec::with_capacity((end - start) as usize);
        for ticket in start..end {
            let slot = &self.slots[(ticket % cap) as usize];
            let published = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != published {
                continue; // mid-write or already recycled
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let event = (
                slot.t_ns.load(Ordering::Relaxed),
                slot.a.load(Ordering::Relaxed),
                slot.b.load(Ordering::Relaxed),
                slot.c.load(Ordering::Relaxed),
            );
            // The fence keeps the word loads from moving below the re-check.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != published {
                continue;
            }
            if let Some(kind) = FlightKind::from_code(kind) {
                let (t_ns, a, b, c) = event;
                out.push(FlightEvent {
                    kind,
                    t_ns,
                    a,
                    b,
                    c,
                });
            }
        }
        out
    }

    /// The retained tail as a JSON object:
    /// `{"recorded": N, "events": [{"kind": "...", "t_ns": ..., ...}]}`.
    pub fn dump_json(&self) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str(&format!("{{\"recorded\":{},\"events\":[", self.recorded()));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"t_ns\":{},\"a\":{},\"b\":{},\"c\":{}}}",
                e.kind.name(),
                e.t_ns,
                e.a,
                e.b,
                e.c
            ));
        }
        out.push_str("]}");
        out
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Flight> = OnceLock::new();

/// Whether flight recording is on. One relaxed load — the entire cost of
/// a feed site while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on or off process-wide. The ring keeps its contents
/// across off/on transitions (it is a black box, history is the point).
pub fn enable(on: bool) {
    if on {
        let _ = global();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global recorder (created on first use, default capacity).
pub fn global() -> &'static Flight {
    GLOBAL.get_or_init(|| Flight::new(DEFAULT_CAPACITY))
}

/// Record an event in the global recorder — the feed-site entry point.
/// A no-op costing one relaxed load while disabled.
#[inline]
pub fn record(kind: FlightKind, a: u64, b: u64, c: u64) {
    if enabled() {
        global().record(kind, a, b, c);
    }
}

/// Events the global recorder has seen over its lifetime.
pub fn recorded() -> u64 {
    global().recorded()
}

/// The global recorder's retained tail, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    global().snapshot()
}

/// The global recorder's tail as JSON (see [`Flight::dump_json`]).
pub fn dump_json() -> String {
    global().dump_json()
}

/// Chain a panic hook that dumps the recorder tail to stderr when a
/// panic fires while recording is enabled. Idempotent; the previous hook
/// (including the default backtrace printer) still runs afterwards.
pub fn install_panic_dump() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                eprintln!("flight-recorder dump: {}", dump_json());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_ring() {
        let f = Flight::new(8);
        f.record(FlightKind::EngineOpen, 1, 0, 0);
        f.record(FlightKind::WalAppend, 42, 3, 0);
        f.record(FlightKind::Checkpoint, 42, 40, 0);
        let got = f.snapshot();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].kind, FlightKind::EngineOpen);
        assert_eq!(
            (got[1].kind, got[1].a, got[1].b),
            (FlightKind::WalAppend, 42, 3)
        );
        assert_eq!(got[2].kind, FlightKind::Checkpoint);
        assert!(
            got.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "timestamps are monotone"
        );
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let f = Flight::new(4);
        assert!(f.snapshot().is_empty());
        for i in 0..10 {
            f.record(FlightKind::PointMark, i, 0, 0);
        }
        let got = f.snapshot();
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(f.recorded(), 10);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        let f = Flight::new(16);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let f = &f;
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        // Internally consistent event: a == b == c.
                        f.record(FlightKind::ALL[t], i, i, i);
                    }
                });
            }
            // Reader races the writers.
            for _ in 0..200 {
                for e in f.snapshot() {
                    assert_eq!((e.a, e.a), (e.b, e.c), "torn event surfaced");
                }
            }
        });
        assert_eq!(f.recorded(), 20_000);
        assert_eq!(f.snapshot().len(), 16);
    }

    #[test]
    fn dump_json_is_wellformed_and_named() {
        let f = Flight::new(4);
        f.record(FlightKind::NoFreeFrames, 2, 77, 16);
        let json = f.dump_json();
        assert!(json.starts_with("{\"recorded\":1,\"events\":["));
        assert!(json.contains("\"kind\":\"no_free_frames\""));
        assert!(json.contains("\"a\":2,\"b\":77,\"c\":16"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn kind_codes_round_trip() {
        for (i, kind) in FlightKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as u64, i as u64 + 1, "codes are contiguous");
            assert_eq!(FlightKind::from_code(kind as u64), Some(kind));
        }
        assert_eq!(FlightKind::from_code(0), None);
        assert_eq!(FlightKind::from_code(99), None);
    }

    #[test]
    fn global_record_is_inert_when_disabled() {
        enable(false);
        let before = recorded();
        record(FlightKind::PointMark, 1, 2, 3);
        assert_eq!(recorded(), before);
    }
}
