//! # cor-obs
//!
//! Zero-external-dependency observability substrate for the complex-object
//! reproduction. The paper's only observable is average I/O per query;
//! every performance PR in this repo is expected to ship with *evidence* —
//! hit ratios, per-component cost splits, latency distributions — and this
//! crate provides the pieces every layer shares:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic scalars ([`metric`]);
//! * [`Histogram`] — log-bucketed streaming histograms whose
//!   [`HistSnapshot`]s answer quantiles ([`hist`]);
//! * [`MetricsRegistry`] → [`MetricsSnapshot`] — named, labeled metric
//!   families collected into one structured view ([`registry`]);
//! * [`Flight`] / [`FlightKind`] — a bounded black-box event journal in
//!   a lock-free seqlock ring, dumped on panic or fault ([`flight`]);
//! * [`to_json`] — the one exporter over a snapshot ([`export`]);
//! * [`Phase`] / [`PhaseGuard`] — thread-scoped phase brackets, so a
//!   profiler can say *where* each page went, not just how many moved
//!   ([`phase`]);
//! * [`PhaseLedger`] — the only per-phase ledger of reads, writes and
//!   wall time, collected between [`tracetree::start`] and
//!   [`TraceGuard::finish`] on one thread ([`tracetree`]).
//!
//! Three switches turn observation on, each with one reader:
//! [`flight::enable`] (the panic/fault dump), [`tracetree::start`]
//! (`Engine::explain`) and the engine builder's `metrics` setter
//! (`Engine::metrics`). Instrumentation is
//! free when disabled: layers hold their telemetry in an `Option` fixed
//! at construction, and every recording call is a handful of relaxed
//! atomic adds when enabled.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod flight;
pub mod hist;
pub mod metric;
pub mod phase;
pub mod registry;
pub mod tracetree;

pub use export::to_json;
pub use flight::{Flight, FlightEvent, FlightKind};
pub use hist::{bucket_index, bucket_upper, HistSnapshot, Histogram, HIST_BUCKETS};
pub use metric::{hit_ratio, Counter, Gauge};
pub use phase::{current_phase, Phase, PhaseGuard, PHASE_COUNT};
pub use registry::{
    labels, Labels, MetricFamily, MetricKind, MetricSample, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use tracetree::{PhaseLedger, TraceGuard};
