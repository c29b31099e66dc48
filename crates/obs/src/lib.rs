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
//!   [`HistSnapshot`]s merge exactly and answer quantiles ([`hist`]);
//! * [`MetricsRegistry`] → [`MetricsSnapshot`] — named, labeled metric
//!   families collected into one structured view ([`registry`]);
//! * [`Flight`] / [`FlightKind`] — a bounded black-box event journal in
//!   a lock-free seqlock ring, dumped on panic or fault ([`flight`]);
//! * [`to_prometheus`] / [`to_json`] — exporters over a snapshot, plus
//!   [`parse_prometheus`] for validating the text output ([`export`]);
//! * [`Phase`] / [`PhaseGuard`] — thread-scoped phase brackets, so a
//!   profiler can say *where* each page went, not just how many moved
//!   ([`phase`]);
//! * [`TraceTree`] — per-query causal span trees riding the phase layer,
//!   exported as Chrome trace-event JSON, and the only per-phase ledger
//!   of reads, writes and wall time ([`tracetree`]).
//!
//! Three switches turn observation on, each with one reader:
//! [`flight::enable`] (the panic/fault dump), [`tracetree::start`]
//! (`Engine::trace_query` and `Engine::explain`) and the engine
//! builder's `metrics` setter (`Engine::metrics`). Instrumentation is
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

pub use export::{
    escape_json, escape_label_value, parse_prometheus, to_json, to_prometheus, ParsedSample,
};
pub use flight::{Flight, FlightEvent, FlightKind};
pub use hist::{bucket_index, bucket_upper, HistSnapshot, Histogram, HIST_BUCKETS};
pub use metric::{hit_ratio, Counter, Gauge};
pub use phase::{current_phase, Phase, PhaseGuard, PHASE_COUNT};
pub use registry::{
    labels, Labels, MetricFamily, MetricKind, MetricSample, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use tracetree::{TraceGuard, TraceNode, TraceTree, MAX_TRACE_NODES};
