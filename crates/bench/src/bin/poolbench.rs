//! `poolbench` — scan-resistant buffer replacement, measured end to end.
//!
//! Two layers of measurement, both written to `BENCH_pool.json`:
//!
//! 1. **Merge-scan flood legs** drive a [`BufferPool`] directly with the
//!    access shape that kills a recency policy: a hot set (the B-tree
//!    inner nodes every query descends through — probed twice per round,
//!    the way repeated descents touch them) interleaved with a
//!    sequential one-touch flood (a BFS merge scan). Every
//!    {policy × pool size} cell reports the hot-set hit ratio, the
//!    overall hit ratio, and its measured miss count next to the
//!    [`predict_policy_misses`] closed form with the relative error —
//!    the measured-vs-predicted bend points of this bench's own
//!    per-policy miss model.
//! 2. **Engine legs** run the index-bound strategies (BFS, DFSCLUST,
//!    DFSCACHE) over the same generated database for every
//!    {policy × pool size × thread count} cell, reporting throughput,
//!    p99 latency, pool hit ratio, and the per-page-class view from the
//!    observability layer: heat-map touches split internal/leaf and
//!    phase-attributed physical reads, giving *descent reads per probe*
//!    — how many inner-node pages each index descent had to re-fault.
//!
//! ```text
//! cargo run --release -p cor-bench --bin poolbench [--scale F | --full]
//!     [--json FILE]    output path (default BENCH_pool.json)
//!     [--threads LIST] engine-leg thread counts (default 1,4)
//!     [--smoke]        small database, gate cells only, exit 1 on:
//!                      SIEVE failing the retention gate, the
//!                      per-policy miss model missing its exact cells,
//!                      or SIEVE returning different query results
//!                      than LRU
//! ```
//!
//! Gates (checked on every run, enforced in `--smoke`):
//!
//! * **Flood retention** — at the 100-page pool, SIEVE must keep a
//!   hot-set hit ratio at least 1.2x LRU's (and ≥ 0.5 absolutely).
//! * **Model sanity** — on the cells where the closed form is exact
//!   (LRU and SIEVE at 100 pages with the hot set resident), measured
//!   misses must be within 35% of predicted.
//! * **Results invariant** — replacement policy is a physical knob;
//!   every engine leg must return byte-identical query results.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use complexobj::cost::cold_fraction;
use complexobj::{Query, Strategy};
use cor_bench::{write_report, BenchConfig, JsonObj};
use cor_obs::{heat, HeatClass, Phase, PAGE_CLASS_INTERNAL, PAGE_CLASS_LEAF};
use cor_pagestore::{BufferPool, PageId, ReplacementPolicy};
use cor_workload::{
    fnum, format_table, generate, generate_sequence, generate_stream_sequences, Engine, Params,
};

/// Hot-set pages in the flood legs (inner-node stand-ins).
const FLOOD_HOT: usize = 60;
/// One-touch flood pages per round.
const FLOOD_SCAN: usize = 300;
/// Rounds of (hot probes + flood).
const FLOOD_ROUNDS: usize = 10;
/// Pool sizes swept by both layers.
const POOL_SIZES: [usize; 4] = [25, 50, 100, 200];
/// The pool size the retention and model gates are pinned to.
const GATE_POOL: usize = 100;
/// Retention gates require this multiple of LRU's ratio.
const GATE_FACTOR: f64 = 1.2;

/// The flood legs' shape: a `hot_pages` re-referenced set (the B-tree
/// inner nodes a query sequence keeps descending through) interleaved
/// with `scan_pages` of one-touch flood per round (a BFS merge pass or
/// DFSCLUST cluster scan), repeated `rounds` times against a
/// `buffer_pages` pool. Where the miss curve bends as the pool grows
/// depends on the replacement policy, not just the pool size — which the
/// cost model's Cardenas-Yao terms cannot express.
struct FloodWorkload {
    /// Pages re-referenced every round (the hot set).
    hot_pages: f64,
    /// One-touch pages scanned per round (the flood).
    scan_pages: f64,
    /// Rounds of (hot probes + scan).
    rounds: f64,
    /// Pool capacity in pages.
    buffer_pages: f64,
}

/// Expected buffer misses for one replacement policy over a
/// [`FloodWorkload`].
///
/// Closed forms, with `H` hot, `S` scan, `B` buffer and `R` rounds —
/// both policies pay the `H + S` compulsory first-round faults, and they
/// differ only in the per-round *re*-miss term:
///
/// * **LRU** cannot tell a one-touch scan page from a hot page: once the
///   round's churn `H + S` overflows the pool, the flood evicts
///   everything and every re-reference misses. The re-miss fraction
///   interpolates through [`cold_fraction`] — 0 while `H + S ≤ B`, 1
///   from `2B` up — so the predicted curve bends only at `B ≈ H + S`.
/// * **SIEVE** retains the hot set in all but the one frame under its
///   hand, so hot pages re-miss only past *that* bend (`B ≈ H`), while
///   the one-touch scan pages re-miss every round whenever the round
///   does not fit the pool outright.
fn predict_policy_misses(policy: ReplacementPolicy, w: &FloodWorkload) -> f64 {
    let (h, s, b) = (w.hot_pages, w.scan_pages, w.buffer_pages);
    let repeats = (w.rounds - 1.0).max(0.0);
    let compulsory = h + s;
    match policy {
        ReplacementPolicy::Lru => {
            // One shared region: re-misses are all-or-nothing in the
            // round churn, smoothed exactly like the index-descent term.
            let f = cold_fraction(h + s, 0.0, b);
            compulsory + repeats * f * (h + s)
        }
        ReplacementPolicy::Sieve => {
            let hot_re = h - h.min((b - 1.0).max(0.0));
            let scan_re = if h + s <= b { 0.0 } else { s };
            compulsory + repeats * (hot_re + scan_re)
        }
    }
}

/// Relative error of a measured miss count against the model,
/// `|measured − predicted| / max(predicted, 1)`.
fn policy_miss_rel_error(measured: f64, predicted: f64) -> f64 {
    (measured - predicted).abs() / predicted.max(1.0)
}

/// One flood-leg measurement.
struct FloodLeg {
    policy: ReplacementPolicy,
    pool_pages: usize,
    hot_probes: u64,
    hot_hits: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    predicted_misses: f64,
    elapsed_us: u64,
}

impl FloodLeg {
    fn hot_ratio(&self) -> f64 {
        if self.hot_probes == 0 {
            0.0
        } else {
            self.hot_hits as f64 / self.hot_probes as f64
        }
    }

    fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    fn rel_error(&self) -> f64 {
        policy_miss_rel_error(self.misses as f64, self.predicted_misses)
    }
}

/// Sum the pool's telemetry counters into (hits, misses, evictions).
fn telemetry_sums(pool: &BufferPool) -> (u64, u64, u64) {
    let (mut h, mut m, mut e) = (0, 0, 0);
    for s in pool.telemetry().into_iter().flatten() {
        h += s.hits;
        m += s.misses;
        e += s.evictions;
    }
    (h, m, e)
}

/// Run one {policy, pool size} merge-scan flood cell.
fn run_flood_leg(policy: ReplacementPolicy, pool_pages: usize) -> FloodLeg {
    let pool = Arc::new(
        BufferPool::builder()
            .capacity(pool_pages)
            .shards(1)
            .policy(policy)
            .telemetry(true)
            .build(),
    );
    let make_pages = |n: usize| -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let pid = pool.allocate_page().expect("store extends");
                pool.write(pid, |mut p| {
                    p.init();
                    p.insert(&(i as u64).to_le_bytes()).expect("record fits");
                })
                .expect("page writes");
                pid
            })
            .collect()
    };
    let hot = make_pages(FLOOD_HOT);
    let scan = make_pages(FLOOD_SCAN);
    pool.flush_and_clear().expect("pool flushes");

    let (h0, m0, e0) = telemetry_sums(&pool);
    let (mut hot_probes, mut hot_hits) = (0u64, 0u64);
    let mut sink = 0u64;
    let t = Instant::now();
    for _ in 0..FLOOD_ROUNDS {
        // Two probe passes per round: a descent touches the same inner
        // pages every time it runs, so hot pages see quick re-references
        // — the pattern SIEVE's visited bit rewards.
        let (hb, ..) = telemetry_sums(&pool);
        for _ in 0..2 {
            for &pid in &hot {
                sink ^= pool.read(pid, |p| p.bytes()[0] as u64).expect("hot read");
            }
        }
        let (ha, ..) = telemetry_sums(&pool);
        hot_probes += 2 * hot.len() as u64;
        hot_hits += ha - hb;
        for &pid in &scan {
            sink ^= pool.read(pid, |p| p.bytes()[0] as u64).expect("scan read");
        }
    }
    let elapsed_us = t.elapsed().as_micros() as u64;
    std::hint::black_box(sink);
    let (h1, m1, e1) = telemetry_sums(&pool);
    let w = FloodWorkload {
        hot_pages: FLOOD_HOT as f64,
        scan_pages: FLOOD_SCAN as f64,
        rounds: FLOOD_ROUNDS as f64,
        buffer_pages: pool_pages as f64,
    };
    FloodLeg {
        policy,
        pool_pages,
        hot_probes,
        hot_hits,
        accesses: (h1 - h0) + (m1 - m0),
        hits: h1 - h0,
        misses: m1 - m0,
        evictions: e1 - e0,
        predicted_misses: predict_policy_misses(policy, &w),
        elapsed_us,
    }
}

/// One engine-leg measurement.
struct EngineLeg {
    policy: ReplacementPolicy,
    strategy: Strategy,
    pool_pages: usize,
    threads: usize,
    queries: usize,
    values_returned: u64,
    total_io: u64,
    qps: f64,
    p99_us: f64,
    hits: u64,
    misses: u64,
    /// Physical reads charged to the index-descent phase.
    descent_reads: u64,
    /// Physical reads charged to the heap-fetch phase.
    heap_reads: u64,
    /// Heat-map touches of the internal page class (≈ descents run).
    internal_probes: u64,
    /// Heat-map touches of the leaf page class.
    leaf_touches: u64,
}

impl EngineLeg {
    fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Inner-node pages physically re-faulted per index descent — the
    /// per-page-class retention signal: a policy that keeps the B-tree
    /// inner nodes resident drives this toward zero.
    fn descent_reads_per_probe(&self) -> f64 {
        if self.internal_probes == 0 {
            0.0
        } else {
            self.descent_reads as f64 / self.internal_probes as f64
        }
    }
}

/// Run the engine cells for one {policy, strategy, pool size} database
/// across every thread count (the build is paid once per database, not
/// once per thread count).
fn run_engine_cells(
    params: &Params,
    generated: &cor_workload::GeneratedDb,
    policy: ReplacementPolicy,
    strategy: Strategy,
    pool_pages: usize,
    thread_counts: &[usize],
) -> Vec<EngineLeg> {
    let leg_params = Params {
        buffer_pages: pool_pages,
        shards: 1,
        ..params.clone()
    };
    let engine = Engine::builder()
        .policy(policy)
        .metrics(true)
        .build_workload(&leg_params, generated, strategy)
        .expect("engine builds");
    let profile = engine.pool().stats().enable_profile();

    thread_counts
        .iter()
        .map(|&threads| {
            let sequences = generate_stream_sequences(&leg_params, threads);
            heat::global().reset();
            let (h0, m0, _) = telemetry_sums(engine.pool());
            let phase0 = profile.snapshot();
            let result = engine
                .run_concurrent(strategy, &sequences, None)
                .expect("concurrent run completes");
            let phases = profile.snapshot().since(&phase0);
            let (h1, m1, _) = telemetry_sums(engine.pool());
            let report = heat::global().report();
            let class_touches = |id: u64| {
                report
                    .entries
                    .iter()
                    .find(|e| e.class == HeatClass::PageClass && e.id == id)
                    .map(|e| e.count)
                    .unwrap_or(0)
            };

            let secs = result.elapsed.as_secs_f64();
            EngineLeg {
                policy,
                strategy,
                pool_pages,
                threads,
                queries: result.queries,
                values_returned: result.values_returned,
                total_io: result.total_io,
                qps: if secs > 0.0 {
                    result.queries as f64 / secs
                } else {
                    0.0
                },
                p99_us: result.latency.p99.as_nanos() as f64 / 1e3,
                hits: h1 - h0,
                misses: m1 - m0,
                descent_reads: phases.reads_of(Phase::IndexDescent),
                heap_reads: phases.reads_of(Phase::HeapFetch),
                internal_probes: class_touches(PAGE_CLASS_INTERNAL),
                leaf_touches: class_touches(PAGE_CLASS_LEAF),
            }
        })
        .collect()
}

/// How many point queries make up one probe phase of a retention leg.
const RETENTION_PROBES: usize = 6;
/// Measured probe/flood rounds after the cold round.
const RETENTION_ROUNDS: usize = 5;

/// One {policy, pool size} B-tree inner-node retention cell.
///
/// The leg interleaves a *fixed* set of DFS point queries (whose index
/// descents are the hot inner-node working set) with one BFS merge-scan
/// query (the flood, bigger than the pool). The cold round's
/// phase-attributed descent reads are the compulsory cost of the probe
/// phase; every descent read a later round repeats is an inner node the
/// flood evicted.
struct RetentionLeg {
    policy: ReplacementPolicy,
    pool_pages: usize,
    /// Descent reads of the cold probe phase (compulsory).
    cold_descent_reads: u64,
    /// Descent reads summed over the measured probe phases.
    steady_descent_reads: u64,
    /// Heat-map internal-class touches over the measured probe phases.
    internal_probes: u64,
    /// Pool misses of one flood query (how hard the scan pushes).
    flood_misses: u64,
    /// Values returned across all rounds (results invariant).
    values_returned: u64,
}

impl RetentionLeg {
    /// Fraction of the probe phase's inner-node working set that stayed
    /// resident through the floods (1 = fully retained, 0 = the flood
    /// evicts every inner node, every round).
    fn retention(&self) -> f64 {
        let compulsory = (RETENTION_ROUNDS as u64 * self.cold_descent_reads) as f64;
        if compulsory == 0.0 {
            return 1.0;
        }
        (1.0 - self.steady_descent_reads as f64 / compulsory).max(0.0)
    }
}

/// Run one probe/flood retention cell.
fn run_retention_leg(
    params: &Params,
    generated: &cor_workload::GeneratedDb,
    policy: ReplacementPolicy,
    pool_pages: usize,
) -> RetentionLeg {
    let leg_params = Params {
        buffer_pages: pool_pages,
        shards: 1,
        ..params.clone()
    };
    // BFS and DFS share the standard physical layout, so one build
    // serves both the probe and the flood side of the leg.
    let engine = Engine::builder()
        .policy(policy)
        .metrics(true)
        .build_workload(&leg_params, generated, Strategy::Bfs)
        .expect("engine builds");
    let profile = engine.pool().stats().enable_profile();
    // The SAME point queries every round: their descents are the hot
    // set whose residency is under test.
    let probes: Vec<Query> = generate_sequence(&Params {
        num_top: 2,
        sequence_len: RETENTION_PROBES,
        pr_update: 0.0,
        ..leg_params.clone()
    });
    let flood: Vec<Query> = generate_sequence(&Params {
        sequence_len: 1,
        pr_update: 0.0,
        seed: leg_params.seed.wrapping_add(0xF100D),
        ..leg_params.clone()
    });
    engine.pool().flush_and_clear().expect("pool flushes");

    let mut values_returned = 0u64;
    let mut run_phase = |queries: &[Query], strategy: Strategy| -> u64 {
        let before = profile.snapshot();
        for q in queries {
            let Query::Retrieve(r) = q else { continue };
            let out = engine.retrieve(strategy, r).expect("retrieve runs");
            values_returned += out.values.len() as u64;
        }
        profile
            .snapshot()
            .since(&before)
            .reads_of(Phase::IndexDescent)
    };

    // Cold round: compulsory descent cost, then the first flood.
    let cold_descent_reads = run_phase(&probes, Strategy::Dfs);
    let (_, fm0, _) = telemetry_sums(engine.pool());
    run_phase(&flood, Strategy::Bfs);
    let (_, fm1, _) = telemetry_sums(engine.pool());

    heat::global().reset();
    let mut steady_descent_reads = 0u64;
    for _ in 0..RETENTION_ROUNDS {
        steady_descent_reads += run_phase(&probes, Strategy::Dfs);
        run_phase(&flood, Strategy::Bfs);
    }
    let report = heat::global().report();
    let internal_probes = report
        .entries
        .iter()
        .find(|e| e.class == HeatClass::PageClass && e.id == PAGE_CLASS_INTERNAL)
        .map(|e| e.count)
        .unwrap_or(0);

    RetentionLeg {
        policy,
        pool_pages,
        cold_descent_reads,
        steady_descent_reads,
        internal_probes,
        flood_misses: fm1 - fm0,
        values_returned,
    }
}

fn json_retention(l: &RetentionLeg) -> String {
    JsonObj::default()
        .str("policy", l.policy.name())
        .raw("pool_pages", l.pool_pages)
        .fixed("retention", l.retention(), 4)
        .raw("cold_descent_reads", l.cold_descent_reads)
        .raw("steady_descent_reads", l.steady_descent_reads)
        .raw("internal_probes", l.internal_probes)
        .raw("flood_misses", l.flood_misses)
        .finish()
}

fn json_flood(l: &FloodLeg) -> String {
    JsonObj::default()
        .str("policy", l.policy.name())
        .raw("pool_pages", l.pool_pages)
        .fixed("hot_hit_ratio", l.hot_ratio(), 4)
        .fixed("hit_ratio", l.hit_ratio(), 4)
        .raw("accesses", l.accesses)
        .raw("hits", l.hits)
        .raw("misses", l.misses)
        .raw("evictions", l.evictions)
        .fixed("predicted_misses", l.predicted_misses, 1)
        .fixed("rel_error", l.rel_error(), 4)
        .raw("elapsed_us", l.elapsed_us)
        .finish()
}

fn json_engine(l: &EngineLeg) -> String {
    JsonObj::default()
        .str("policy", l.policy.name())
        .str("strategy", l.strategy.name())
        .raw("pool_pages", l.pool_pages)
        .raw("threads", l.threads)
        .raw("queries", l.queries)
        .fixed("throughput_qps", l.qps, 3)
        .fixed("p99_us", l.p99_us, 3)
        .fixed("hit_ratio", l.hit_ratio(), 4)
        .raw("pool_hits", l.hits)
        .raw("pool_misses", l.misses)
        .raw("total_io", l.total_io)
        .raw("descent_reads", l.descent_reads)
        .raw("heap_reads", l.heap_reads)
        .raw("internal_probes", l.internal_probes)
        .raw("leaf_touches", l.leaf_touches)
        .fixed("descent_reads_per_probe", l.descent_reads_per_probe(), 4)
        .finish()
}

fn main() {
    let cfg = BenchConfig::from_args();
    let smoke = cfg.has_flag("--smoke");
    cfg.expect_flags(&["--smoke"], &["--json", "--threads"]);
    let json_path = PathBuf::from(cfg.value("--json").unwrap_or("BENCH_pool.json"));
    let threads: Vec<usize> = cfg.value("--threads").map_or(vec![1, 4], |list| {
        list.split(',')
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --threads needs a comma-separated list of positive integers");
                    std::process::exit(2);
                })
            })
            .collect()
    });

    // The flood layer is pure memory and always runs at full size; the
    // engine layer shrinks with --smoke.
    let params = if smoke {
        Params {
            // Large enough that one BFS merge scan floods the gate pool
            // several times over — the condition the retention gate is
            // about. A smaller database fits a 100-page pool outright
            // and every policy measures identically.
            parent_card: 2000,
            num_top: 200,
            sequence_len: 8,
            size_cache: 20,
            pr_update: 0.0,
            ..Params::paper_default()
        }
    } else {
        let base = cfg.base_params();
        Params {
            pr_update: 0.0,
            // Enough selected objects that BFS plans the merge join —
            // the scan flood this benchmark is about.
            num_top: (base.parent_card / 10).max(base.num_top),
            ..base
        }
    };
    let (pool_sizes, strategies, thread_counts): (Vec<usize>, Vec<Strategy>, Vec<usize>) = if smoke
    {
        (vec![25, GATE_POOL], vec![Strategy::Bfs], vec![1])
    } else {
        (
            POOL_SIZES.to_vec(),
            vec![Strategy::Bfs, Strategy::DfsClust, Strategy::DfsCache],
            threads,
        )
    };
    println!(
        "poolbench — scan-resistant replacement policies{}\n\
         flood: {} hot + {} scan pages x {} rounds; engine: |ParentRel| = {}, \
         {} queries/stream, pools {:?}, threads {:?}\n",
        if smoke { " (smoke)" } else { "" },
        FLOOD_HOT,
        FLOOD_SCAN,
        FLOOD_ROUNDS,
        params.parent_card,
        params.sequence_len,
        pool_sizes,
        thread_counts,
    );

    let mut failures: Vec<String> = Vec::new();

    // ---- merge-scan flood legs -------------------------------------
    let mut flood_legs: Vec<FloodLeg> = Vec::new();
    for &pool_pages in POOL_SIZES.iter() {
        for policy in ReplacementPolicy::ALL {
            flood_legs.push(run_flood_leg(policy, pool_pages));
        }
    }
    let flood_rows: Vec<Vec<String>> = flood_legs
        .iter()
        .map(|l| {
            vec![
                l.policy.name().to_string(),
                l.pool_pages.to_string(),
                format!("{:.3}", l.hot_ratio()),
                format!("{:.3}", l.hit_ratio()),
                l.misses.to_string(),
                format!("{:.0}", l.predicted_misses),
                format!("{:.1}%", l.rel_error() * 100.0),
            ]
        })
        .collect();
    println!(
        "merge-scan flood (hot-set retention and model bend points)\n{}",
        format_table(
            &[
                "policy",
                "pool",
                "hot hit",
                "hit",
                "misses",
                "predicted",
                "err",
            ],
            &flood_rows,
        )
    );

    let flood_at = |policy: ReplacementPolicy, pool: usize| -> &FloodLeg {
        flood_legs
            .iter()
            .find(|l| l.policy == policy && l.pool_pages == pool)
            .expect("flood cell exists")
    };
    let lru_hot = flood_at(ReplacementPolicy::Lru, GATE_POOL).hot_ratio();
    let sieve_hot = flood_at(ReplacementPolicy::Sieve, GATE_POOL).hot_ratio();
    if sieve_hot < GATE_FACTOR * lru_hot || sieve_hot < 0.5 {
        failures.push(format!(
            "flood retention: sieve hot hit ratio {sieve_hot:.3} at {GATE_POOL} pages \
             (LRU {lru_hot:.3}, need >= {GATE_FACTOR}x and >= 0.5)",
        ));
    }
    for policy in ReplacementPolicy::ALL {
        let leg = flood_at(policy, GATE_POOL);
        if leg.rel_error() > 0.35 {
            failures.push(format!(
                "miss model: {} at {GATE_POOL} pages measured {} vs predicted {:.0} \
                 (rel error {:.1}% > 35%)",
                policy.name(),
                leg.misses,
                leg.predicted_misses,
                leg.rel_error() * 100.0,
            ));
        }
    }

    // ---- engine legs ------------------------------------------------
    heat::enable(true);
    let generated = generate(&params);
    let mut engine_legs: Vec<EngineLeg> = Vec::new();
    for &strategy in &strategies {
        for &pool_pages in &pool_sizes {
            for policy in ReplacementPolicy::ALL {
                engine_legs.extend(run_engine_cells(
                    &params,
                    &generated,
                    policy,
                    strategy,
                    pool_pages,
                    &thread_counts,
                ));
            }
        }
    }
    let engine_rows: Vec<Vec<String>> = engine_legs
        .iter()
        .map(|l| {
            vec![
                l.strategy.name().to_string(),
                l.pool_pages.to_string(),
                l.threads.to_string(),
                l.policy.name().to_string(),
                fnum(l.qps),
                fnum(l.p99_us),
                format!("{:.3}", l.hit_ratio()),
                format!("{:.2}", l.descent_reads_per_probe()),
            ]
        })
        .collect();
    println!(
        "engine sweep (descent r/p = inner-node pages re-faulted per descent)\n{}",
        format_table(
            &[
                "Strategy",
                "pool",
                "thr",
                "policy",
                "q/s",
                "p99us",
                "hit",
                "descent r/p",
            ],
            &engine_rows,
        )
    );

    // Replacement is a physical knob: within one {strategy, pool,
    // threads} cell every policy must return the same values.
    for l in &engine_legs {
        let base = engine_legs
            .iter()
            .find(|b| {
                b.strategy == l.strategy
                    && b.pool_pages == l.pool_pages
                    && b.threads == l.threads
                    && b.policy == ReplacementPolicy::Lru
            })
            .expect("LRU baseline exists");
        if l.values_returned != base.values_returned || l.queries != base.queries {
            failures.push(format!(
                "results differ: {} {} at {} pages x{} returned {} values vs LRU's {}",
                l.strategy.name(),
                l.policy.name(),
                l.pool_pages,
                l.threads,
                l.values_returned,
                base.values_returned,
            ));
        }
    }
    // ---- B-tree inner-node retention legs ---------------------------
    let mut retention_legs: Vec<RetentionLeg> = Vec::new();
    for &pool_pages in &pool_sizes {
        for policy in ReplacementPolicy::ALL {
            retention_legs.push(run_retention_leg(&params, &generated, policy, pool_pages));
        }
    }
    let retention_rows: Vec<Vec<String>> = retention_legs
        .iter()
        .map(|l| {
            vec![
                l.policy.name().to_string(),
                l.pool_pages.to_string(),
                l.cold_descent_reads.to_string(),
                l.steady_descent_reads.to_string(),
                l.flood_misses.to_string(),
                format!("{:.3}", l.retention()),
            ]
        })
        .collect();
    println!(
        "inner-node retention (DFS probes x BFS merge-scan floods)\n{}",
        format_table(
            &[
                "policy",
                "pool",
                "cold descents",
                "steady descents",
                "flood miss",
                "retained",
            ],
            &retention_rows,
        )
    );
    for l in &retention_legs {
        let base = retention_legs
            .iter()
            .find(|b| b.pool_pages == l.pool_pages && b.policy == ReplacementPolicy::Lru)
            .expect("LRU baseline exists");
        if l.values_returned != base.values_returned {
            failures.push(format!(
                "results differ: retention leg {} at {} pages returned {} values vs LRU's {}",
                l.policy.name(),
                l.pool_pages,
                l.values_returned,
                base.values_returned,
            ));
        }
    }
    let retention_at = |policy: ReplacementPolicy| -> &RetentionLeg {
        retention_legs
            .iter()
            .find(|l| l.policy == policy && l.pool_pages == GATE_POOL)
            .expect("retention cell exists")
    };
    let lru_retention = retention_at(ReplacementPolicy::Lru).retention();
    let sieve_retention = retention_at(ReplacementPolicy::Sieve).retention();
    if sieve_retention < (GATE_FACTOR * lru_retention).max(0.5) {
        failures.push(format!(
            "inner-node retention: sieve retained {sieve_retention:.3} of the descent \
             working set at {GATE_POOL} pages (LRU {lru_retention:.3}, need >= \
             {GATE_FACTOR}x and >= 0.5)",
        ));
    }

    let json = JsonObj::default()
        .stamp(2)
        .raw("scale", cfg.scale)
        .raw("smoke", smoke)
        .obj(
            "gate",
            JsonObj::default()
                .raw("pool_pages", GATE_POOL)
                .raw("factor", GATE_FACTOR)
                .fixed("lru_hot_hit_ratio", lru_hot, 4)
                .fixed("sieve_hot_hit_ratio", sieve_hot, 4)
                .fixed("lru_inner_retention", lru_retention, 4)
                .fixed("sieve_inner_retention", sieve_retention, 4),
        )
        .params(&params, "parent_card num_top sequence_len seed")
        .obj(
            "flood",
            JsonObj::default()
                .raw("hot_pages", FLOOD_HOT)
                .raw("scan_pages", FLOOD_SCAN)
                .raw("rounds", FLOOD_ROUNDS)
                .array("legs", flood_legs.iter().map(json_flood)),
        )
        .obj(
            "retention",
            JsonObj::default()
                .raw("probe_queries", RETENTION_PROBES)
                .raw("rounds", RETENTION_ROUNDS)
                .array("legs", retention_legs.iter().map(json_retention)),
        )
        .obj(
            "engine",
            JsonObj::default().array("legs", engine_legs.iter().map(json_engine)),
        )
        .finish();
    write_report(&json_path, &format!("{json}\n"));

    if failures.is_empty() {
        println!(
            "poolbench{}: OK ({} flood + {} retention + {} engine legs validated)",
            if smoke { " smoke" } else { "" },
            flood_legs.len(),
            retention_legs.len(),
            engine_legs.len(),
        );
    } else {
        for f in &failures {
            eprintln!("poolbench FAIL: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_term_sieve_bends_earlier() {
        // The gate operating point: 100-page pool, hot set that fits,
        // per-round flood that does not.
        let w = FloodWorkload {
            hot_pages: 60.0,
            scan_pages: 300.0,
            rounds: 10.0,
            buffer_pages: 100.0,
        };
        let lru = predict_policy_misses(ReplacementPolicy::Lru, &w);
        let sieve = predict_policy_misses(ReplacementPolicy::Sieve, &w);
        // LRU re-faults the whole round, every round.
        assert_eq!(lru, 360.0 + 9.0 * 360.0);
        // SIEVE keeps the hot set: only the flood re-misses.
        assert_eq!(sieve, 360.0 + 9.0 * 300.0);
        assert!(sieve < lru);
    }

    #[test]
    fn policy_term_collapses_when_the_round_fits_the_pool() {
        // Below every bend point both policies predict compulsory
        // misses only — the curves are indistinguishable there.
        let w = FloodWorkload {
            hot_pages: 20.0,
            scan_pages: 30.0,
            rounds: 8.0,
            buffer_pages: 200.0,
        };
        for policy in ReplacementPolicy::ALL {
            assert_eq!(predict_policy_misses(policy, &w), 50.0, "{policy:?}");
        }
    }

    #[test]
    fn policy_term_degrades_past_the_protected_capacity() {
        // Hot set bigger than SIEVE's protected B - 1 frames: the
        // overflow re-misses each round, still well under LRU.
        let w = FloodWorkload {
            hot_pages: 110.0,
            scan_pages: 300.0,
            rounds: 10.0,
            buffer_pages: 100.0,
        };
        let sieve = predict_policy_misses(ReplacementPolicy::Sieve, &w);
        assert_eq!(sieve, 410.0 + 9.0 * (11.0 + 300.0));
        assert!(sieve < predict_policy_misses(ReplacementPolicy::Lru, &w));
        // Rel-error helper: exact match is zero, floor guards division.
        assert_eq!(policy_miss_rel_error(sieve, sieve), 0.0);
        assert_eq!(policy_miss_rel_error(3.0, 0.0), 3.0);
    }
}
