//! Engine observability: per-strategy query metrics and the folded
//! report.
//!
//! [`EngineMetrics`] owns the engine-level instruments — per-strategy
//! query counters, I/O-delta counters, and latency and I/O histograms —
//! all resolved from a [`MetricsRegistry`] once at construction so the
//! hot path touches only relaxed atomics. [`MetricsReport`] folds those
//! engine metrics together with the buffer pool's per-shard telemetry and
//! the unit/procedural cache counters into one [`MetricsSnapshot`] that
//! the Prometheus and JSON exporters render.
//!
//! Everything here *reads* [`IoStats`](cor_pagestore::IoStats) snapshots;
//! nothing writes them. The paper's I/O counts are identical with metrics
//! on or off.

use complexobj::{CacheCounters, Strategy};
use cor_obs::{labels, Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use cor_pagestore::{IoDelta, ReplacementPolicy, ShardTelemetrySnapshot};
use cor_wal::WalStatsSnapshot;
use std::sync::Arc;
use std::time::Duration;

/// Version of the exported metrics layout, stamped into every rendered
/// report (matches the `schema_version` `corstat --json` writes).
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Metric families every [`MetricsReport`] must carry;
/// [`MetricsReport::validate`] fails if any is missing or non-finite.
pub const REQUIRED_METRICS: &[&str] = &[
    "cor_query_total",
    "cor_query_reads_total",
    "cor_query_writes_total",
    "cor_query_latency_ns",
    "cor_query_io_pages",
];

/// `strategy`'s index in [`Strategy::ALL`], which orders the
/// per-strategy instruments.
fn strategy_index(strategy: Strategy) -> usize {
    Strategy::ALL
        .iter()
        .position(|s| *s == strategy)
        .expect("every strategy is in ALL")
}

/// Handles for one (strategy, op) cell.
struct OpHandles {
    queries: Arc<Counter>,
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    latency_ns: Arc<Histogram>,
    io_pages: Arc<Histogram>,
}

impl OpHandles {
    fn register(reg: &MetricsRegistry, strategy: Option<Strategy>, op: &str) -> OpHandles {
        let lbls = match strategy {
            Some(s) => labels(&[("strategy", s.name()), ("op", op)]),
            None => labels(&[("op", op)]),
        };
        OpHandles {
            queries: reg.counter(
                "cor_query_total",
                "queries served by the engine",
                lbls.clone(),
            ),
            reads: reg.counter(
                "cor_query_reads_total",
                "physical page reads attributed to queries",
                lbls.clone(),
            ),
            writes: reg.counter(
                "cor_query_writes_total",
                "physical page writes attributed to queries",
                lbls.clone(),
            ),
            latency_ns: reg.histogram(
                "cor_query_latency_ns",
                "per-call wall time in nanoseconds",
                lbls.clone(),
            ),
            io_pages: reg.histogram(
                "cor_query_io_pages",
                "per-call physical page transfers",
                lbls,
            ),
        }
    }

    fn record(&self, delta: IoDelta, wall: Duration) {
        self.queries.inc();
        self.reads.add(delta.reads);
        self.writes.add(delta.writes);
        self.latency_ns.record(duration_ns(wall));
        self.io_pages.record(delta.total());
    }
}

/// Clamp a [`Duration`] to nanoseconds in `u64` (saturating — a call
/// longer than ~584 years is not worth a panic).
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The engine's live instruments. Enabled at construction via
/// [`EngineBuilder::metrics`](crate::EngineBuilder::metrics); an engine
/// built without it holds no `EngineMetrics` and pays nothing.
pub struct EngineMetrics {
    registry: MetricsRegistry,
    retrieve: Vec<OpHandles>,
    sequence: Vec<OpHandles>,
    update: OpHandles,
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineMetrics").finish_non_exhaustive()
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Register every instrument.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let retrieve = Strategy::ALL
            .iter()
            .map(|s| OpHandles::register(&registry, Some(*s), "retrieve"))
            .collect();
        let sequence = Strategy::ALL
            .iter()
            .map(|s| OpHandles::register(&registry, Some(*s), "sequence"))
            .collect();
        let update = OpHandles::register(&registry, None, "update");
        EngineMetrics {
            registry,
            retrieve,
            sequence,
            update,
        }
    }

    /// Record one retrieve: its I/O delta and wall time.
    pub fn record_retrieve(&self, strategy: Strategy, delta: IoDelta, wall: Duration) {
        self.retrieve[strategy_index(strategy)].record(delta, wall);
    }

    /// Record one update.
    pub fn record_update(&self, delta: IoDelta, wall: Duration) {
        self.update.record(delta, wall);
    }

    /// Record one whole measured sequence.
    pub fn record_sequence(&self, strategy: Strategy, delta: IoDelta, wall: Duration) {
        self.sequence[strategy_index(strategy)].record(delta, wall);
    }

    /// Snapshot of the engine-level metrics only (no pool or cache
    /// sections — [`build_report`] folds those in).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// A complete observability report for one engine.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Every metric — engine, pool, cache — in exporter-ready form.
    pub snapshot: MetricsSnapshot,
    /// Per-shard pool telemetry (empty when the pool was built without
    /// telemetry).
    pub pool: Vec<ShardTelemetrySnapshot>,
    /// Cache counters, when the engine carries a unit or procedural
    /// cache.
    pub cache: Option<CacheCounters>,
    /// Write-ahead-log counters, when the engine runs durable.
    pub wal: Option<WalStatsSnapshot>,
}

impl MetricsReport {
    /// Render the report in Prometheus text exposition format, prefixed
    /// by a `# cor_meta` comment stamping the metrics schema and engine
    /// catalog versions (comment lines are ignored by Prometheus parsers,
    /// including [`cor_obs::parse_prometheus`]).
    pub fn to_prometheus(&self) -> String {
        format!(
            "# cor_meta schema_version={} catalog_version={}\n{}",
            METRICS_SCHEMA_VERSION,
            crate::catalog::ENGINE_CATALOG_VERSION,
            cor_obs::to_prometheus(&self.snapshot)
        )
    }

    /// Render the report as JSON, wrapped with the same
    /// `schema_version` / `catalog_version` stamps `corstat --json` writes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{},\"catalog_version\":{},\"metrics\":{}}}",
            METRICS_SCHEMA_VERSION,
            crate::catalog::ENGINE_CATALOG_VERSION,
            cor_obs::to_json(&self.snapshot)
        )
    }

    /// Structural health check: all [`REQUIRED_METRICS`] present, every
    /// gauge finite, histogram buckets consistent.
    pub fn validate(&self) -> Result<(), String> {
        self.snapshot.validate(REQUIRED_METRICS)
    }

    /// Whole-pool roll-up of the per-shard telemetry (all-zero when the
    /// pool ran without telemetry).
    pub fn pool_total(&self) -> ShardTelemetrySnapshot {
        let mut total = ShardTelemetrySnapshot::default();
        for s in &self.pool {
            total.merge(s);
        }
        total
    }
}

/// Fold engine metrics, pool telemetry, cache counters, and WAL
/// counters into one report.
pub fn build_report(
    metrics: &EngineMetrics,
    pool: Option<(ReplacementPolicy, Vec<ShardTelemetrySnapshot>)>,
    cache: Option<CacheCounters>,
    wal: Option<WalStatsSnapshot>,
) -> MetricsReport {
    let mut snapshot = metrics.snapshot();
    if let Some((policy, shards)) = &pool {
        // Info-style metric: the constant value 1 carries the active
        // replacement policy in its label, the Prometheus idiom for
        // configuration facts. Follows the telemetry gating so a
        // metrics-off engine's export stays byte-identical.
        snapshot.push_gauge(
            "cor_pool_policy",
            "active buffer replacement policy (info metric, value is always 1)",
            labels(&[("policy", policy.name())]),
            1.0,
        );
        for s in shards {
            let lbls = labels(&[("shard", &s.shard.to_string())]);
            snapshot.push_counter(
                "cor_pool_hits_total",
                "buffer pool page-table hits",
                lbls.clone(),
                s.hits,
            );
            snapshot.push_counter(
                "cor_pool_misses_total",
                "buffer pool page faults",
                lbls.clone(),
                s.misses,
            );
            snapshot.push_counter(
                "cor_pool_evictions_total",
                "buffer pool evictions",
                lbls.clone(),
                s.evictions,
            );
            snapshot.push_counter(
                "cor_pool_writebacks_total",
                "dirty pages written back",
                lbls.clone(),
                s.writebacks,
            );
            snapshot.push_counter(
                "cor_pool_pin_waits_total",
                "pin attempts that found every frame pinned",
                lbls.clone(),
                s.pin_waits,
            );
            snapshot.push_gauge(
                "cor_pool_hit_ratio",
                "pool hit fraction per shard",
                lbls,
                s.hit_ratio(),
            );
        }
    }
    if let Some(c) = &cache {
        let lbls = labels(&[]);
        snapshot.push_counter(
            "cor_cache_hits_total",
            "cache probe hits",
            lbls.clone(),
            c.hits,
        );
        snapshot.push_counter(
            "cor_cache_misses_total",
            "cache probe misses",
            lbls.clone(),
            c.misses,
        );
        snapshot.push_counter(
            "cor_cache_insertions_total",
            "units materialized into the cache",
            lbls.clone(),
            c.insertions,
        );
        snapshot.push_counter(
            "cor_cache_invalidations_total",
            "units invalidated by updates",
            lbls.clone(),
            c.invalidations,
        );
        snapshot.push_counter(
            "cor_cache_evictions_total",
            "units evicted for room",
            lbls.clone(),
            c.evictions,
        );
        snapshot.push_gauge(
            "cor_cache_hit_ratio",
            "cache hit fraction",
            lbls,
            c.hit_ratio(),
        );
    }
    if let Some(w) = &wal {
        let lbls = labels(&[]);
        snapshot.push_counter(
            "cor_wal_appends_total",
            "log records appended",
            lbls.clone(),
            w.appends,
        );
        snapshot.push_counter(
            "cor_wal_fsyncs_total",
            "physical log syncs issued",
            lbls.clone(),
            w.fsyncs,
        );
        snapshot.push_counter(
            "cor_wal_bytes_total",
            "serialized log bytes appended",
            lbls.clone(),
            w.bytes,
        );
        snapshot.push_counter(
            "cor_wal_images_total",
            "full-page-image records appended",
            lbls.clone(),
            w.images,
        );
        snapshot.push_counter(
            "cor_wal_deltas_total",
            "byte-range delta records appended",
            lbls.clone(),
            w.deltas,
        );
        snapshot.push_counter(
            "cor_wal_checkpoints_total",
            "checkpoint records appended",
            lbls.clone(),
            w.checkpoints,
        );
        snapshot.push_gauge(
            "cor_wal_appended_lsn",
            "highest LSN appended to the log",
            lbls.clone(),
            w.appended_lsn as f64,
        );
        snapshot.push_gauge(
            "cor_wal_durable_lsn",
            "highest LSN known durable",
            lbls,
            w.durable_lsn as f64,
        );
    }
    MetricsReport {
        snapshot,
        pool: pool.map(|(_, shards)| shards).unwrap_or_default(),
        cache,
        wal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_stamp_schema_and_catalog_versions() {
        let m = EngineMetrics::new();
        let report = build_report(&m, None, None, None);
        let meta = format!(
            "schema_version={} catalog_version={}",
            METRICS_SCHEMA_VERSION,
            crate::catalog::ENGINE_CATALOG_VERSION
        );
        let prom = report.to_prometheus();
        assert!(prom.starts_with(&format!("# cor_meta {meta}\n")), "{prom}");
        cor_obs::parse_prometheus(&prom).expect("meta comment is parser-safe");
        let json = report.to_json();
        assert!(
            json.starts_with(&format!(
                "{{\"schema_version\":{},\"catalog_version\":{},\"metrics\":",
                METRICS_SCHEMA_VERSION,
                crate::catalog::ENGINE_CATALOG_VERSION
            )),
            "{json}"
        );
        assert!(json.ends_with('}'));
    }

    #[test]
    fn recorded_queries_surface_in_snapshot() {
        let m = EngineMetrics::new();
        let delta = IoDelta {
            reads: 10,
            writes: 2,
        };
        m.record_retrieve(Strategy::Dfs, delta, Duration::from_micros(5));
        m.record_retrieve(Strategy::Dfs, delta, Duration::from_micros(7));
        m.record_update(
            IoDelta {
                reads: 1,
                writes: 1,
            },
            Duration::from_micros(3),
        );
        let report = build_report(&m, None, None, None);
        report.validate().expect("complete report");
        let totals = report.snapshot.family("cor_query_total").unwrap();
        // 6 strategies x {retrieve, sequence} + update.
        assert_eq!(totals.samples.len(), 13);
        let text = report.to_prometheus();
        assert!(text.contains("cor_query_total{strategy=\"DFS\",op=\"retrieve\"} 2"));
        assert!(text.contains("cor_query_reads_total{strategy=\"DFS\",op=\"retrieve\"} 20"));
        assert!(text.contains("cor_query_total{op=\"update\"} 1"));
    }

    #[test]
    fn report_folds_pool_and_cache_sections() {
        let m = EngineMetrics::new();
        m.record_sequence(
            Strategy::Bfs,
            IoDelta {
                reads: 5,
                writes: 5,
            },
            Duration::from_millis(1),
        );
        let pool = vec![
            ShardTelemetrySnapshot {
                shard: 0,
                hits: 30,
                misses: 10,
                ..Default::default()
            },
            ShardTelemetrySnapshot {
                shard: 1,
                hits: 5,
                misses: 5,
                ..Default::default()
            },
        ];
        let cache = CacheCounters {
            hits: 8,
            misses: 2,
            insertions: 2,
            invalidations: 1,
            evictions: 0,
        };
        let report = build_report(
            &m,
            Some((ReplacementPolicy::Sieve, pool)),
            Some(cache),
            None,
        );
        report.validate().expect("complete report");
        assert!(
            report
                .to_prometheus()
                .contains("cor_pool_policy{policy=\"sieve\"} 1"),
            "policy info metric rides with the pool section"
        );
        assert!(report.to_json().contains("cor_pool_policy"));
        assert_eq!(
            report
                .snapshot
                .family("cor_pool_hits_total")
                .unwrap()
                .samples
                .len(),
            2
        );
        assert!(report.snapshot.family("cor_cache_hit_ratio").is_some());
        let total = report.pool_total();
        assert_eq!(total.hits, 35);
        assert_eq!(total.probes(), 50);
        let text = report.to_prometheus();
        assert!(text.contains("cor_pool_hit_ratio{shard=\"0\"} 0.75"));
        let json = report.to_json();
        assert!(json.contains("cor_cache_hits_total"));
    }
}
