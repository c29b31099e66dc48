//! `corstat` — the observability roll-up: run every strategy over one
//! mixed workload with the full metrics layer enabled and report
//! per-strategy mean I/O, latency quantiles, pool hit ratios per shard,
//! and cache effectiveness, as a table and (optionally) JSON.
//!
//! ```text
//! cargo run -p cor-bench --release --bin corstat [--scale F | --full]
//!     [--json FILE]   also write the report as JSON
//!     [--trace]       causal-trace leg: sample retrieves through the
//!                     trace-tree collector, tabulate the trees, and export
//!                     the deepest one as Chrome trace-event JSON (with
//!                     --json FILE: write it there; load the file at
//!                     ui.perfetto.dev)
//!     [--watch]       live mode: concurrent streams with a rate / p50 /
//!                     p99 line per tick over the queries of that tick
//! ```
//!
//! A report, not a gate: the invariants it displays are held by the
//! test suite (`crates/workload/tests/observability.rs` and the engine's
//! metrics tests; see `docs/observability.md`).

use std::time::Duration;

use complexobj::{CacheCounters, Query, Strategy};
use cor_bench::{write_report, BenchConfig, JsonObj};
use cor_obs::{HistSnapshot, MetricValue};
use cor_pagestore::ShardTelemetrySnapshot;
use cor_workload::{
    fnum, format_table, generate, generate_sequence, generate_stream_sequences, Engine, LiveTick,
    MetricsReport, Params, ENGINE_CATALOG_VERSION,
};

/// Everything the table and the JSON need for one strategy.
struct StrategyStat {
    strategy: Strategy,
    retrieves: u64,
    updates: u64,
    mean_retrieve_io: f64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    latency_max_ns: u64,
    pool: Vec<ShardTelemetrySnapshot>,
    pool_total: ShardTelemetrySnapshot,
    cache: Option<CacheCounters>,
}

/// The counter sample of `name` whose labels contain every `(k, v)` pair.
fn counter(report: &MetricsReport, name: &str, want: &[(&str, &str)]) -> u64 {
    sample(report, name, want)
        .and_then(|v| match v {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

fn sample<'a>(
    report: &'a MetricsReport,
    name: &str,
    want: &[(&str, &str)],
) -> Option<&'a MetricValue> {
    report
        .snapshot
        .family(name)?
        .samples
        .iter()
        .find(|s| {
            want.iter()
                .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|s| &s.value)
}

fn run_strategy(
    params: &Params,
    generated: &cor_workload::GeneratedDb,
    strategy: Strategy,
) -> StrategyStat {
    let engine = Engine::builder()
        .metrics(true)
        .build_workload(params, generated, strategy)
        .expect("engine builds");
    engine.pool().flush_and_clear().expect("cold start");
    let sequence = generate_sequence(params);
    for q in &sequence {
        match q {
            Query::Retrieve(r) => {
                engine.retrieve(strategy, r).expect("retrieve runs");
            }
            Query::Update(u) => {
                engine.update(u).expect("update runs");
            }
        }
    }
    let report = engine.metrics().expect("observed engine reports");
    let lbls = [("strategy", strategy.name()), ("op", "retrieve")];
    let retrieves = counter(&report, "cor_query_total", &lbls);
    let io = counter(&report, "cor_query_reads_total", &lbls)
        + counter(&report, "cor_query_writes_total", &lbls);
    let lat = sample(&report, "cor_query_latency_ns", &lbls);
    let (p50, p99, max) = match lat {
        Some(MetricValue::Histogram(h)) => (h.quantile(0.5), h.quantile(0.99), h.max()),
        _ => (0, 0, 0),
    };
    StrategyStat {
        strategy,
        retrieves,
        updates: counter(&report, "cor_query_total", &[("op", "update")]),
        mean_retrieve_io: if retrieves > 0 {
            io as f64 / retrieves as f64
        } else {
            0.0
        },
        latency_p50_ns: p50,
        latency_p99_ns: p99,
        latency_max_ns: max,
        pool: report.pool.clone(),
        pool_total: report.pool_total(),
        cache: report.cache,
    }
}

fn us(ns: u64) -> String {
    fnum(ns as f64 / 1000.0)
}

fn pct(ratio: f64) -> String {
    format!("{:.1}", ratio * 100.0)
}

fn json_cache(c: &Option<CacheCounters>) -> String {
    c.as_ref().map_or("null".into(), |c| {
        JsonObj::default()
            .raw("hits", c.hits)
            .raw("misses", c.misses)
            .raw("insertions", c.insertions)
            .raw("invalidations", c.invalidations)
            .raw("evictions", c.evictions)
            .fixed("hit_ratio", c.hit_ratio(), 6)
            .finish()
    })
}

fn json_shard(s: &ShardTelemetrySnapshot) -> String {
    JsonObj::default()
        .raw("shard", s.shard)
        .raw("hits", s.hits)
        .raw("misses", s.misses)
        .raw("evictions", s.evictions)
        .raw("writebacks", s.writebacks)
        .raw("pin_waits", s.pin_waits)
        .fixed("hit_ratio", s.hit_ratio(), 6)
        .finish()
}

fn json_report(scale: f64, params: &Params, stats: &[StrategyStat]) -> String {
    let strategies = stats.iter().map(|s| {
        JsonObj::default()
            .str("strategy", s.strategy.name())
            .raw("retrieves", s.retrieves)
            .raw("updates", s.updates)
            .fixed("mean_retrieve_io", s.mean_retrieve_io, 6)
            .obj(
                "latency_ns",
                JsonObj::default()
                    .raw("p50", s.latency_p50_ns)
                    .raw("p99", s.latency_p99_ns)
                    .raw("max", s.latency_max_ns),
            )
            .obj(
                "pool",
                JsonObj::default()
                    .fixed("hit_ratio", s.pool_total.hit_ratio(), 6)
                    .raw("total", json_shard(&s.pool_total))
                    .array("shards", s.pool.iter().map(json_shard)),
            )
            .raw("cache", json_cache(&s.cache))
            .finish()
    });
    let json = JsonObj::default()
        .raw("schema_version", 1)
        .raw("catalog_version", ENGINE_CATALOG_VERSION)
        .raw("scale", scale)
        .params(
            params,
            "parent_card size_unit use_factor overlap_factor num_top size_cache buffer_pages \
             sequence_len shards pr_update seed policy",
        )
        .raw("parent_card", params.parent_card)
        .raw("sequence_len", params.sequence_len)
        .raw("shards", params.shards)
        .raw("pr_update", params.pr_update)
        .array("strategies", strategies)
        .finish();
    format!("{json}\n")
}

/// The `--trace` leg: run every strategy over the retrieve-only
/// workload, sample one retrieve in four through
/// [`Engine::trace_query`], tabulate each causal tree, and export the
/// deepest as Chrome trace-event JSON.
fn run_trace_leg(base: &Params, json_path: Option<&std::path::Path>) {
    use cor_obs::TraceTree;

    const SAMPLE_EVERY: usize = 4;
    let params = Params {
        pr_update: 0.0,
        ..base.clone()
    };
    println!(
        "corstat --trace — causal trace trees over sampled retrieves\n\
         |ParentRel| = {}, {} queries per strategy, 1 in {SAMPLE_EVERY} traced\n",
        params.parent_card, params.sequence_len,
    );

    let generated = generate(&params);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut best: Option<TraceTree> = None;
    for strategy in Strategy::ALL {
        let engine = Engine::builder()
            .build_workload(&params, &generated, strategy)
            .expect("engine builds");
        engine.pool().flush_and_clear().expect("cold start");
        let sequence = generate_sequence(&params);
        for (i, q) in sequence.iter().enumerate() {
            let Query::Retrieve(r) = q else { continue };
            if i % SAMPLE_EVERY != 0 {
                engine.retrieve(strategy, r).expect("retrieve runs");
                continue;
            }
            let (_, tree) = engine.trace_query(strategy, r).expect("traced retrieve");
            let Some(tree) = tree else { continue };
            rows.push(vec![
                strategy.name().to_string(),
                tree.id.to_string(),
                tree.nodes.len().to_string(),
                tree.total_reads().to_string(),
                tree.total_writes().to_string(),
                us(tree.total_ns),
            ]);
            if best
                .as_ref()
                .is_none_or(|b| tree.nodes.len() > b.nodes.len())
            {
                best = Some(tree);
            }
        }
    }

    println!(
        "{}",
        format_table(
            &["Strategy", "Trace", "Nodes", "Reads", "Writes", "Wall us"],
            &rows,
        )
    );

    if let Some(tree) = &best {
        let path = json_path
            .map(std::path::Path::to_path_buf)
            .unwrap_or_else(|| "corstat_trace.json".into());
        write_report(&path, &tree.to_chrome_json());
        eprintln!("({} nodes; load at ui.perfetto.dev)", tree.nodes.len());
    }
}

/// The `--watch` leg: concurrent streams with a live windowed view. Each
/// tick prints the rate and latency quantiles of the queries finished
/// since the previous tick, not since the start.
fn run_watch_leg(params: &Params) {
    use std::sync::Mutex;

    let streams = 4;
    let interval = Duration::from_millis(250);
    println!(
        "corstat --watch — live windowed view\n\
         {streams} streams x {} queries, one window per {interval:?} tick\n",
        params.sequence_len,
    );

    let generated = generate(params);
    let engine = Engine::builder()
        .build_workload(params, &generated, Strategy::Dfs)
        .expect("engine builds");
    let sequences = generate_stream_sequences(params, streams);
    let previous = Mutex::new((Duration::ZERO, HistSnapshot::default()));
    let callback = |tick: LiveTick| {
        let mut previous = previous.lock().expect("watch baseline");
        let span = tick.elapsed.saturating_sub(previous.0);
        let window = tick.latency_hist.delta(&previous.1);
        println!(
            "[watch {:7.3}s] {:>6} queries | last {:.3}s: {} q/s, \
             p50 {} us, p99 {} us",
            tick.elapsed.as_secs_f64(),
            tick.queries_done,
            span.as_secs_f64(),
            fnum(window.count() as f64 / span.as_secs_f64()),
            us(window.quantile(0.5)),
            us(window.quantile(0.99)),
        );
        *previous = (tick.elapsed, tick.latency_hist);
    };
    let result = engine
        .run_concurrent(Strategy::Dfs, &sequences, Some((interval, &callback)))
        .expect("watched run");
    println!(
        "\ndone: {} queries in {:?} ({} q/s overall, p50 {} us, p99 {} us)",
        result.queries,
        result.elapsed,
        fnum(result.queries_per_sec()),
        us(result.latency.p50.as_nanos() as u64),
        us(result.latency.p99.as_nanos() as u64),
    );
}

fn main() {
    let cfg = BenchConfig::from_args();
    cfg.expect_flags(&["--trace", "--watch"], &["--json"]);
    let json_path = cfg.value("--json").map(std::path::PathBuf::from);
    let params = Params {
        shards: 4,
        pr_update: 0.1,
        ..cfg.base_params()
    };

    if cfg.has_flag("--trace") {
        return run_trace_leg(&params, json_path.as_deref());
    }
    if cfg.has_flag("--watch") {
        return run_watch_leg(&params);
    }

    println!(
        "corstat — per-strategy observability roll-up\n\
         |ParentRel| = {}, buffer = {} pages x {} shards, {} queries, Pr(UPDATE) = {}\n",
        params.parent_card,
        params.buffer_pages,
        params.shards,
        params.sequence_len,
        params.pr_update
    );

    let generated = generate(&params);
    let stats: Vec<StrategyStat> = Strategy::ALL
        .into_iter()
        .map(|strategy| run_strategy(&params, &generated, strategy))
        .collect();

    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            vec![
                s.strategy.name().to_string(),
                s.retrieves.to_string(),
                s.updates.to_string(),
                fnum(s.mean_retrieve_io),
                us(s.latency_p50_ns),
                us(s.latency_p99_ns),
                us(s.latency_max_ns),
                pct(s.pool_total.hit_ratio()),
                s.cache
                    .map_or_else(|| "-".to_string(), |c| pct(c.hit_ratio())),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "Strategy",
                "Retr",
                "Upd",
                "IO/retr",
                "p50 us",
                "p99 us",
                "max us",
                "pool hit%",
                "cache hit%",
            ],
            &rows,
        )
    );
    cfg.maybe_write_csv(
        &[
            "Strategy",
            "Retr",
            "Upd",
            "IO_per_retrieve",
            "p50_us",
            "p99_us",
            "max_us",
            "pool_hit_pct",
            "cache_hit_pct",
        ],
        &rows,
    );

    println!("per-shard pool telemetry (hits/misses/evictions/writebacks per stripe):");
    let shard_rows: Vec<Vec<String>> = stats
        .iter()
        .flat_map(|s| {
            s.pool.iter().map(|t| {
                vec![
                    s.strategy.name().to_string(),
                    t.shard.to_string(),
                    t.hits.to_string(),
                    t.misses.to_string(),
                    t.evictions.to_string(),
                    t.writebacks.to_string(),
                    pct(t.hit_ratio()),
                ]
            })
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["Strategy", "Shard", "Hits", "Misses", "Evict", "WriteBk", "Hit%"],
            &shard_rows,
        )
    );

    if let Some(path) = &json_path {
        write_report(path, &json_report(cfg.scale, &params, &stats));
    }
}
