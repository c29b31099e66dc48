//! The engine's metrics report: what [`Engine::metrics`](crate::Engine::metrics)
//! returns when the engine was built with
//! [`EngineBuilder::metrics`](crate::EngineBuilder::metrics).
//!
//! Everything here *reads* counters the pool and the caches keep; nothing
//! writes [`IoStats`](cor_pagestore::IoStats). The paper's I/O counts are
//! identical with metrics on or off.

use complexobj::CacheCounters;
use cor_pagestore::ShardTelemetrySnapshot;

/// Pool and cache counters of one engine.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Per-shard pool telemetry, one entry per lock stripe.
    pub pool: Vec<ShardTelemetrySnapshot>,
    /// Cache counters, when the engine carries a unit or procedural
    /// cache.
    pub cache: Option<CacheCounters>,
}
