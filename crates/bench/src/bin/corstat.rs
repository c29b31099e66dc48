//! `corstat` — the observability roll-up: run every strategy over one
//! mixed workload with the full metrics layer enabled and report
//! per-strategy mean I/O, latency quantiles, pool hit ratios per shard,
//! and cache effectiveness, as a table and (optionally) JSON.
//!
//! ```text
//! cargo run -p cor-bench --release --bin corstat [--scale F | --full]
//!     [--json FILE]   also write the report as JSON
//!     [--smoke]       tiny database, validate every report, exit 1 on
//!                     any missing or non-finite metric (the CI gate)
//!     [--heat]        skew-detection leg: drive the same database with a
//!                     uniform and a Zipf stream and show the heat map
//!                     separating them (with --smoke: gate on separation)
//!     [--trace]       causal-trace leg: sample retrieves through the
//!                     trace-tree collector, gate every tree against the
//!                     PhaseProfile ledger, and export the deepest one as
//!                     Chrome trace-event JSON (with --json FILE: write it
//!                     there; load the file at ui.perfetto.dev)
//!     [--watch]       live mode: concurrent streams with a sliding-window
//!                     rate / p50 / p99 line per tick
//! ```
//!
//! Unlike the figure binaries this one measures the *measuring*: it is
//! the end-to-end exercise of `Engine::metrics()` and the exporters, and
//! the numbers double as a health check that instrumentation never
//! perturbs the paper's I/O accounting (see `docs/observability.md`).

use std::time::Duration;

use complexobj::{CacheCounters, Query, Strategy};
use cor_bench::{write_report, BenchConfig, JsonObj};
use cor_obs::{heat, MetricValue, SlidingWindow};
use cor_pagestore::ShardTelemetrySnapshot;
use cor_workload::{
    fnum, format_table, generate, generate_sequence, generate_stream_sequences,
    generate_zipf_sequence, Engine, LiveTick, MetricsReport, Params, ENGINE_CATALOG_VERSION,
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
) -> (StrategyStat, MetricsReport) {
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
    let stat = StrategyStat {
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
    };
    (stat, report)
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

/// Smoke gate: a metric that is missing, zero-where-it-cannot-be, or
/// non-finite fails the run.
fn smoke_check(stat: &StrategyStat, report: &MetricsReport) -> Result<(), String> {
    let s = stat.strategy;
    report.validate().map_err(|e| format!("{s}: {e}"))?;
    if stat.retrieves == 0 {
        return Err(format!("{s}: no retrieves recorded"));
    }
    if !stat.mean_retrieve_io.is_finite() || stat.mean_retrieve_io <= 0.0 {
        return Err(format!(
            "{s}: mean retrieve I/O {} not positive-finite",
            stat.mean_retrieve_io
        ));
    }
    if stat.latency_p50_ns == 0 || stat.latency_p50_ns > stat.latency_max_ns {
        return Err(format!("{s}: implausible latency quantiles"));
    }
    if stat.pool.is_empty() || stat.pool_total.probes() == 0 {
        return Err(format!("{s}: pool telemetry empty"));
    }
    if !stat.pool_total.hit_ratio().is_finite() {
        return Err(format!("{s}: pool hit ratio not finite"));
    }
    if s.needs_cache() && stat.cache.is_none() {
        return Err(format!("{s}: cache counters missing"));
    }
    Ok(())
}

/// The `--heat` leg: drive one database with a uniform and a Zipf-skewed
/// query stream and show the heat map telling them apart. With `smoke`,
/// gate on the separation (the CI check that the heat layer actually
/// detects skew, not just counts).
fn run_heat_leg(base: &Params, smoke: bool) -> i32 {
    const THETA: f64 = 1.2;
    const TOP_K: usize = 5;
    // num_top = 1 keys the Parent heat class directly on the generator's
    // rank distribution: each retrieve touches exactly parent `lo`, and
    // the Zipf generator's hot set is {0, 1, 2, ..} by construction.
    let params = Params {
        num_top: 1,
        pr_update: 0.0,
        sequence_len: base.sequence_len.max(400),
        ..base.clone()
    };
    println!(
        "corstat --heat — skew detection via the heat map{}\n\
         |ParentRel| = {}, {} queries per driver, Zipf theta = {THETA}, \
         decay half-life {:.0} tick(s)\n",
        if smoke { " (smoke)" } else { "" },
        params.parent_card,
        params.sequence_len,
        heat::half_life_ticks(heat::DEFAULT_ALPHA_Q16),
    );

    let generated = generate(&params);
    let engine = Engine::builder()
        .build_workload(&params, &generated, Strategy::Dfs)
        .expect("engine builds");
    heat::enable(true);

    heat::global().reset();
    let uniform = generate_sequence(&params);
    engine
        .run_sequence(Strategy::Dfs, &uniform)
        .expect("uniform run");
    let uniform_report = heat::global().report();

    heat::global().reset();
    let skewed = generate_zipf_sequence(&params, THETA);
    engine
        .run_sequence(Strategy::Dfs, &skewed)
        .expect("zipf run");
    let zipf_report = heat::global().report();
    heat::enable(false);

    let mut rows = Vec::new();
    for (driver, report) in [("uniform", &uniform_report), ("zipf", &zipf_report)] {
        for (rank, e) in report
            .top_k(heat::HeatClass::Parent, TOP_K)
            .iter()
            .enumerate()
        {
            rows.push(vec![
                driver.to_string(),
                rank.to_string(),
                e.id.to_string(),
                e.count.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        format_table(&["Driver", "Rank", "Parent", "Heat"], &rows)
    );

    let u_share = uniform_report.top_share(heat::HeatClass::Parent, TOP_K);
    let z_share = zipf_report.top_share(heat::HeatClass::Parent, TOP_K);
    println!(
        "top-{TOP_K} parent heat share: uniform {}%, zipf {}%",
        pct(u_share),
        pct(z_share)
    );
    println!("other classes tracked under the zipf driver:");
    for class in heat::HeatClass::ALL {
        println!(
            "  {:<14} {:>10} heat across {} key(s)",
            class.name(),
            zipf_report.total(class),
            zipf_report.top_k(class, usize::MAX).len()
        );
    }

    if smoke {
        let mut failures: Vec<String> = Vec::new();
        if zipf_report.touches == 0 {
            failures.push("zipf run recorded no heat touches".into());
        }
        if z_share <= 0.4 {
            failures.push(format!("zipf top-{TOP_K} share {z_share:.3} not skewed"));
        }
        if z_share <= 2.0 * u_share {
            failures.push(format!(
                "no separation: zipf share {z_share:.3} vs uniform {u_share:.3}"
            ));
        }
        let top = zipf_report.top_k(heat::HeatClass::Parent, TOP_K);
        if top.len() < TOP_K {
            failures.push(format!("only {} hot parents tracked", top.len()));
        }
        for e in &top {
            if e.id >= 10 {
                failures.push(format!("hot parent {} outside the generator hot set", e.id));
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("corstat heat smoke FAIL: {f}");
            }
            return 1;
        }
        println!("corstat heat smoke: OK (zipf/uniform separation verified)");
    }
    0
}

/// The `--trace` leg: run every strategy over the retrieve-only
/// workload, sample one retrieve in four through
/// [`Engine::trace_query`], and check each causal tree against the
/// authoritative [`PhaseProfile`](cor_obs::PhaseProfile) ledger: the
/// tree must be well-formed (rooted, parents before children, child
/// intervals inside their parents') and its per-phase read/write sums
/// must equal the profile deltas for that query *exactly* — both are
/// fed by the same `IoStats` calls, so any drift is a collector bug.
/// The deepest tree is exported as Chrome trace-event JSON.
fn run_trace_leg(base: &Params, smoke: bool, json_path: Option<&std::path::Path>) -> i32 {
    use cor_obs::{Phase, TraceTree};

    const SAMPLE_EVERY: usize = 4;
    let params = Params {
        pr_update: 0.0,
        ..base.clone()
    };
    println!(
        "corstat --trace — causal trace trees over sampled retrieves{}\n\
         |ParentRel| = {}, {} queries per strategy, 1 in {SAMPLE_EVERY} traced\n",
        if smoke { " (smoke)" } else { "" },
        params.parent_card,
        params.sequence_len,
    );

    let generated = generate(&params);
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut best: Option<TraceTree> = None;
    for strategy in Strategy::ALL {
        let engine = Engine::builder()
            .build_workload(&params, &generated, strategy)
            .expect("engine builds");
        let stats = engine.pool().stats().clone();
        let profile = stats.enable_profile();
        engine.pool().flush_and_clear().expect("cold start");
        let sequence = generate_sequence(&params);
        let mut traced = 0usize;
        for (i, q) in sequence.iter().enumerate() {
            let Query::Retrieve(r) = q else { continue };
            if i % SAMPLE_EVERY != 0 {
                engine.retrieve(strategy, r).expect("retrieve runs");
                continue;
            }
            let before = profile.snapshot();
            let (_, tree) = engine.trace_query(strategy, r).expect("traced retrieve");
            let delta = profile.snapshot().since(&before);
            let Some(tree) = tree else {
                failures.push(format!("{strategy}: sampled retrieve produced no trace"));
                continue;
            };
            traced += 1;
            if let Err(e) = tree.validate() {
                failures.push(format!("{strategy}: malformed trace tree: {e}"));
            }
            let (reads, writes) = (tree.reads_by_phase(), tree.writes_by_phase());
            for phase in Phase::ALL {
                let (tr, tw) = (reads[phase.index()], writes[phase.index()]);
                if tr != delta.reads_of(phase) || tw != delta.writes_of(phase) {
                    failures.push(format!(
                        "{strategy}: {} tree sums {tr}r/{tw}w != profile {}r/{}w",
                        phase.name(),
                        delta.reads_of(phase),
                        delta.writes_of(phase)
                    ));
                }
            }
            if smoke && tree.dropped > 0 {
                failures.push(format!(
                    "{strategy}: trace dropped {} node(s)",
                    tree.dropped
                ));
            }
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
        if traced == 0 {
            failures.push(format!("{strategy}: no retrieves sampled"));
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

    if !failures.is_empty() {
        for f in &failures {
            eprintln!(
                "corstat trace{} FAIL: {f}",
                if smoke { " smoke" } else { "" }
            );
        }
        return 1;
    }
    if smoke {
        println!(
            "corstat trace smoke: OK ({} trees gated against the phase ledger)",
            rows.len()
        );
    }
    0
}

/// The `--watch` leg: concurrent streams with a live sliding-window view
/// (rate and latency quantiles over the last window, not since start).
fn run_watch_leg(base: &Params, smoke: bool) -> i32 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    let streams = 4;
    let (interval, span, params) = if smoke {
        (
            Duration::from_millis(1),
            Duration::from_millis(50),
            Params {
                sequence_len: base.sequence_len.max(400),
                ..base.clone()
            },
        )
    } else {
        (
            Duration::from_millis(250),
            Duration::from_secs(2),
            base.clone(),
        )
    };
    println!(
        "corstat --watch — live windowed view{}\n\
         {} streams x {} queries, tick every {:?}, window {:?}\n",
        if smoke { " (smoke)" } else { "" },
        streams,
        params.sequence_len,
        interval,
        span,
    );

    let generated = generate(&params);
    let engine = Engine::builder()
        .build_workload(&params, &generated, Strategy::Dfs)
        .expect("engine builds");
    let sequences = generate_stream_sequences(&params, streams);
    let window = Mutex::new(SlidingWindow::new(span));
    let views = AtomicU64::new(0);
    let callback = |tick: LiveTick| {
        let mut w = window.lock().expect("watch window");
        w.push(tick.latency_hist.clone());
        if let Some(view) = w.view() {
            views.fetch_add(1, Ordering::Relaxed);
            println!(
                "[watch {:7.3}s] {:>6} queries | last {:.3}s: {} q/s, \
                 p50 {} us, p99 {} us",
                tick.elapsed.as_secs_f64(),
                tick.queries_done,
                view.span.as_secs_f64(),
                fnum(view.rate_per_sec),
                us(view.delta.quantile(0.5)),
                us(view.delta.quantile(0.99)),
            );
        }
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

    if smoke && views.load(Ordering::Relaxed) == 0 {
        eprintln!("corstat watch smoke FAIL: no window view materialized");
        return 1;
    }
    if smoke {
        println!(
            "corstat watch smoke: OK ({} windowed ticks)",
            views.load(Ordering::Relaxed)
        );
    }
    0
}

fn main() {
    let cfg = BenchConfig::from_args();
    let smoke = cfg.has_flag("--smoke");
    cfg.expect_flags(&["--smoke", "--heat", "--trace", "--watch"], &["--json"]);
    let json_path = cfg.value("--json").map(std::path::PathBuf::from);

    let params = if smoke {
        Params {
            parent_card: 200,
            num_top: 10,
            sequence_len: 40,
            size_cache: 20,
            buffer_pages: 16,
            shards: 2,
            pr_update: 0.2,
            ..Params::paper_default()
        }
    } else {
        Params {
            shards: 4,
            pr_update: 0.1,
            ..cfg.base_params()
        }
    };

    if cfg.has_flag("--heat") {
        std::process::exit(run_heat_leg(&params, smoke));
    }
    if cfg.has_flag("--trace") {
        std::process::exit(run_trace_leg(&params, smoke, json_path.as_deref()));
    }
    if cfg.has_flag("--watch") {
        std::process::exit(run_watch_leg(&params, smoke));
    }

    println!(
        "corstat — per-strategy observability roll-up{}\n\
         |ParentRel| = {}, buffer = {} pages x {} shards, {} queries, Pr(UPDATE) = {}\n",
        if smoke { " (smoke)" } else { "" },
        params.parent_card,
        params.buffer_pages,
        params.shards,
        params.sequence_len,
        params.pr_update
    );

    let generated = generate(&params);
    let mut stats = Vec::new();
    let mut failures = Vec::new();
    for strategy in Strategy::ALL {
        let (stat, report) = run_strategy(&params, &generated, strategy);
        if smoke {
            if let Err(e) = smoke_check(&stat, &report) {
                failures.push(e);
            }
        }
        stats.push(stat);
    }

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

    if smoke {
        if failures.is_empty() {
            println!("corstat smoke: OK ({} strategies validated)", stats.len());
        } else {
            for f in &failures {
                eprintln!("corstat smoke FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
