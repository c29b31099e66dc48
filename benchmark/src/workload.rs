//! The four workloads and the closed loop that runs one of them: a single
//! client that sends the next operation only after the previous reply.

use crate::build::{self, Disk, EngineDef, Repr};
use crate::oracle::{Answer, Oracle};
use crate::stats::{peak_rss_mb, percentile_rank};
use crate::trace::{SpanId, Tracer};
use complexobj::{
    CacheCounters, CorError, Query, RetAttr, RetrieveQuery, Strategy, StrategyOutput,
};
use cor_pagestore::PAGE_SIZE;
use cor_wal::WalStatsSnapshot;
use cor_workload::{generate, generate_sequence, Engine, Params};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The harness takes a checkpoint after every this many operations,
/// counted from the first query; it is timed as its own kind of
/// operation and its time is part of the throughput wall.
pub const CHECKPOINT_EVERY: usize = 200;

/// Throughput is the median of this many equal-count slices.
pub const SLICES: usize = 5;

pub struct WorkloadDef {
    pub name: &'static str,
    /// Root of the workload's spans in the trace.
    pub root_span: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub strategy: Strategy,
    pub engine: EngineDef,
    pub num_top: u64,
    pub pr_update: f64,
    /// Start warm-up with one retrieve per NumTop-wide stripe of
    /// ParentRel, so every page is resident before measuring. Only
    /// meaningful when the pool holds the whole store.
    pub sweep: bool,
    /// Random warm-up operations (verified, not timed into any metric).
    pub warmup: usize,
    /// Measured operations per `--seconds`: a fixed count, not a time
    /// target, so every count metric repeats exactly. Sized to take about
    /// one second each on the 2-core box the baseline was taken on.
    pub ops_per_second: usize,
    /// Updates run after the measured window of a read-only workload. The
    /// benchmark contract wants every end-to-end metric from every run
    /// ("with `--trace 0` the metrics are every `end_to_end` metric") and
    /// none ever 0, so `update_p50/p90_ms` need samples on every workload.
    /// Every count, `store_pages` and the peak RSS are read when the window
    /// ends, before the tail; only `engine.close_ms` follows it.
    pub tail_updates_per_second: usize,
    /// Retrieves verified after `close` → `open` (durable engines only).
    pub reopen_checks: usize,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "point_dfs",
        root_span: "workload.point_dfs",
        why: "Fig 3 point: DFS, NumTop 100, 100-page pool, store 19x pool: B-tree point lookups, pool miss/evict and MemDisk copies do the work; sort, WAL and file I/O almost none",
        strategy: Strategy::Dfs,
        engine: EngineDef {
            repr: Repr::Standard,
            pool_pages: 100,
            disk: Disk::Mem,
        },
        num_top: 100,
        pr_update: 0.0,
        sweep: false,
        warmup: 500,
        ops_per_second: 3000,
        tail_updates_per_second: 1000,
        reopen_checks: 0,
    },
    WorkloadDef {
        name: "scan_bfs",
        root_span: "workload.scan_bfs",
        why: "Set-oriented side: BFS, NumTop 200, same store and pool: temp heap, external sort, merge join, scans flooding the pool and the WAL append path for temp pages; few point lookups",
        strategy: Strategy::Bfs,
        engine: EngineDef {
            repr: Repr::Standard,
            pool_pages: 100,
            disk: Disk::Mem,
        },
        num_top: 200,
        pr_update: 0.0,
        sweep: false,
        warmup: 100,
        ops_per_second: 150,
        tail_updates_per_second: 1000,
        reopen_checks: 0,
    },
    WorkloadDef {
        name: "hot_clust",
        root_span: "workload.hot_clust",
        why: "Whole store fits: DFSCLUST, 8192-page pool, zero I/O after warm-up: time is pool hits, record decode and engine code; a disk, aio, WAL or policy change must show no change here",
        strategy: Strategy::DfsClust,
        engine: EngineDef {
            repr: Repr::Clustered,
            pool_pages: 8192,
            disk: Disk::Mem,
        },
        num_top: 100,
        pr_update: 0.0,
        sweep: true,
        warmup: 500,
        ops_per_second: 1800,
        tail_updates_per_second: 1000,
        reopen_checks: 0,
    },
    WorkloadDef {
        name: "durable_mixed",
        root_span: "workload.durable_mixed",
        why: "Writes beside reads: DFSCACHE, Pr(update) 0.3, FileDisk + file WAL, fsync EveryN(8): WAL append and group commit, dirty write-back, pread/pwrite/fdatasync, cache invalidation, recovery at reopen",
        strategy: Strategy::DfsCache,
        engine: EngineDef {
            repr: Repr::Cached(1000),
            pool_pages: 100,
            disk: Disk::File,
        },
        num_top: 20,
        pr_update: 0.3,
        sweep: false,
        warmup: 500,
        ops_per_second: 1200,
        tail_updates_per_second: 0,
        reopen_checks: 50,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Counters the program already exposes, read at operation boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub reads: u64,
    pub writes: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_images: u64,
    pub wal_checkpoints: u64,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        let io = engine.pool().stats().snapshot();
        let wal: WalStatsSnapshot = engine.wal().map(|w| w.stats()).unwrap_or_default();
        Counters {
            reads: io.reads,
            writes: io.writes,
            wal_records: wal.appends,
            wal_bytes: wal.bytes,
            wal_fsyncs: wal.fsyncs,
            wal_images: wal.images,
            wal_checkpoints: wal.checkpoints,
        }
    }

    /// Field-by-field combination of two counter sets.
    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            reads: f(self.reads, other.reads),
            writes: f(self.writes, other.writes),
            wal_records: f(self.wal_records, other.wal_records),
            wal_bytes: f(self.wal_bytes, other.wal_bytes),
            wal_fsyncs: f(self.wal_fsyncs, other.wal_fsyncs),
            wal_images: f(self.wal_images, other.wal_images),
            wal_checkpoints: f(self.wal_checkpoints, other.wal_checkpoints),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |now, then| now - then)
    }

    pub fn io(&self) -> u64 {
        self.reads + self.writes
    }

    pub fn write_bytes(&self) -> u64 {
        self.writes * PAGE_SIZE as u64 + self.wal_bytes
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        *self = self.zip(&rhs, |a, b| a + b);
    }
}

/// Counters only engines built with `.metrics(true)` expose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservedCounters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub pool_writebacks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
}

impl ObservedCounters {
    fn read(engine: &Engine) -> Option<ObservedCounters> {
        let report = engine.metrics()?;
        let cache = report.cache.unwrap_or(CacheCounters::default());
        let mut c = ObservedCounters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_invalidations: cache.invalidations,
            ..Default::default()
        };
        for shard in &report.pool {
            c.pool_hits += shard.hits;
            c.pool_misses += shard.misses;
            c.pool_evictions += shard.evictions;
            c.pool_writebacks += shard.writebacks;
        }
        Some(c)
    }

    fn since(&self, e: &ObservedCounters) -> ObservedCounters {
        ObservedCounters {
            pool_hits: self.pool_hits - e.pool_hits,
            pool_misses: self.pool_misses - e.pool_misses,
            pool_evictions: self.pool_evictions - e.pool_evictions,
            pool_writebacks: self.pool_writebacks - e.pool_writebacks,
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
            cache_invalidations: self.cache_invalidations - e.cache_invalidations,
        }
    }
}

/// Everything that must be bit-for-bit equal between the traced and the
/// untraced pass of one invocation, and between two runs on one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    /// First query → end of the measured window (warm-up included).
    pub lifetime: Counters,
    /// Measured window only.
    pub window: Counters,
    /// The part of `window` that the harness's own checkpoints caused
    /// (catalog re-save, checkpoint record, its fsync), so per-query
    /// counts can leave it out.
    pub window_checkpoints: Counters,
    pub lifetime_ops: u64,
    pub window_ops: u64,
    pub window_retrieves: u64,
    pub window_updates: u64,
    pub window_values: u64,
    pub store_pages: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// One pass of a workload: set-up, warm-up, measured window, update
/// tail, close, and (durable engines) reopen with verification.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub create_ms: f64,
    /// Latencies in the measured window (update latencies come from the
    /// tail when the window holds no update).
    pub retrieve_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    pub checkpoint_ns: Vec<u64>,
    /// Per measured operation: how long the client waited before it could
    /// send the next one (the operation, plus the checkpoint after it).
    pub busy_ns: Vec<u64>,
    pub exact: Exact,
    pub observed: Option<ObservedCounters>,
    /// `VmHWM` when the measured window ended: what the workload itself
    /// needed, before the update tail, close and reopen.
    pub peak_rss_mb: f64,
    pub close_ms: f64,
    pub recover_ms: f64,
    pub open_ms: f64,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.busy_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Everything a run writes goes here, relative to the checkout root
/// (`run.sh` starts the harness there): traces, `layers.json`, scratch stores.
pub const OUT_DIR: &str = "benchmark/out";

/// A scratch directory under [`OUT_DIR`], removed when dropped. The process
/// id in its name keeps concurrent runs apart.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        let path = Path::new(OUT_DIR).join(format!("{label}.{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and
        // replaced on the next run.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

type Error = Box<dyn std::error::Error>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Measured,
    Tail,
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Time one engine call and, when tracing, record its span from the same
/// two clock reads, so tracing adds none to the timed interval.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    root: SpanId,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> (T, Instant, Instant) {
    let t0 = Instant::now();
    let result = call();
    let t1 = Instant::now();
    if let Some(t) = tracer {
        t.record(root, name, t0, t1);
    }
    (result, t0, t1)
}

/// The number of values a retrieve returned, if it succeeded and the
/// oracle agrees with them.
fn verified(result: Result<StrategyOutput, CorError>, want: Answer) -> Option<u64> {
    let out = result.ok()?;
    (Answer::of(&out.values) == want).then_some(out.values.len() as u64)
}

/// Refuse, before any set-up, a `--seconds` that leaves a reported
/// percentile (up to p99 of retrieves, p90 of updates) with too thin a tail.
fn check_sample_counts(
    def: &WorkloadDef,
    seconds: usize,
    window_and_tail: &[Query],
) -> Result<(), String> {
    let retrieves = window_and_tail
        .iter()
        .filter(|q| matches!(q, Query::Retrieve(_)))
        .count();
    let updates = window_and_tail.len() - retrieves;
    for (kind, n, p) in [("retrieves", retrieves, 0.99), ("updates", updates, 0.90)] {
        percentile_rank(n, p).map_err(|e| {
            format!(
                "{}: --seconds {seconds} gives {n} {kind}, p{:.0} {e}; raise --seconds",
                def.name,
                p * 100.0
            )
        })?;
    }
    Ok(())
}

/// Run one pass. `setups` engines are created one after another and all
/// but the last dropped, so `setup_s` has several samples per run.
pub fn run_pass(
    def: &WorkloadDef,
    seed: u64,
    seconds: usize,
    setups: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, Error> {
    let measured = def.ops_per_second * seconds;
    let tail = def.tail_updates_per_second * seconds;
    let params = Params {
        num_top: def.num_top,
        pr_update: def.pr_update,
        sequence_len: def.warmup + measured,
        seed,
        ..Default::default()
    };
    let metrics = tracer.is_some();

    // The whole operation list is generated before set-up; the engine sees
    // only queries.
    let mut ops: Vec<Query> = Vec::new();
    if def.sweep {
        let mut lo = 0;
        while lo + def.num_top <= params.parent_card {
            ops.push(Query::Retrieve(RetrieveQuery {
                lo,
                hi: lo + def.num_top - 1,
                attr: RetAttr::Ret1,
            }));
            lo += def.num_top;
        }
    }
    let warmup_end = ops.len() + def.warmup;
    ops.extend(generate_sequence(&params));
    let measured_end = ops.len();
    ops.extend(generate_sequence(&Params {
        pr_update: 1.0,
        sequence_len: tail,
        seed: seed.wrapping_add(1),
        ..params.clone()
    }));

    check_sample_counts(def, seconds, &ops[warmup_end..])?;

    // Set-up: everything up to the first query, from a cold buffer.
    let mut setup_s = Vec::with_capacity(setups);
    let mut create_ms = 0.0;
    let mut built = None;
    for i in 0..setups {
        drop(built.take()); // at most one store alive at a time
        let t0 = Instant::now();
        let generated = generate(&params);
        let dir = match def.engine.disk {
            Disk::File => Some(ScratchDir::new(&format!("durable-{}-{i}", def.name))?),
            Disk::Mem => None,
        };
        let t_create = Instant::now();
        let engine = build::create(
            &def.engine,
            &generated,
            seed,
            metrics,
            dir.as_ref().map(ScratchDir::path),
        )?;
        create_ms = ms(t_create, Instant::now());
        engine.pool().flush_and_clear()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((engine, generated, dir));
    }
    let (engine, generated, dir) = built.expect("at least one set-up");
    let mut oracle = Oracle::new(&generated.spec);
    drop(generated);

    let root: SpanId = match tracer.as_deref_mut() {
        Some(t) => t.open(0, def.root_span),
        None => 0,
    };
    let mut pass = Pass {
        setup_s,
        create_ms,
        retrieve_ns: Vec::with_capacity(measured),
        update_ns: Vec::with_capacity(measured.max(tail)),
        checkpoint_ns: Vec::new(),
        busy_ns: Vec::with_capacity(measured),
        exact: Exact {
            lifetime: Counters::default(),
            window: Counters::default(),
            window_checkpoints: Counters::default(),
            lifetime_ops: measured_end as u64,
            window_ops: measured as u64,
            window_retrieves: 0,
            window_updates: 0,
            window_values: 0,
            store_pages: 0,
            attempted: 0,
            failed: 0,
        },
        observed: None,
        peak_rss_mb: 0.0,
        close_ms: 0.0,
        recover_ms: 0.0,
        open_ms: 0.0,
    };
    let at_start = Counters::read(&engine);
    let mut at_warm = at_start;
    let mut observed_at_warm = None;
    for (i, op) in ops.iter().enumerate() {
        if i == warmup_end {
            at_warm = Counters::read(&engine);
            observed_at_warm = ObservedCounters::read(&engine);
        }
        let phase = if i < warmup_end {
            Phase::Warmup
        } else if i < measured_end {
            Phase::Measured
        } else {
            Phase::Tail
        };
        pass.exact.attempted += 1;
        // Verification and bookkeeping happen outside the timed interval.
        let ns = match op {
            Query::Retrieve(q) => {
                let (result, t0, t1) = timed(&mut tracer, root, "retrieve", || {
                    engine.retrieve(def.strategy, q)
                });
                let ns = (t1 - t0).as_nanos() as u64;
                match verified(result, oracle.expected(q)) {
                    Some(values) if phase == Phase::Measured => {
                        pass.exact.window_values += values;
                        pass.exact.window_retrieves += 1;
                        pass.retrieve_ns.push(ns);
                    }
                    Some(_) => {}
                    None => pass.exact.failed += 1,
                }
                ns
            }
            Query::Update(u) => {
                let (result, t0, t1) = timed(&mut tracer, root, "update", || engine.update(u));
                let ns = (t1 - t0).as_nanos() as u64;
                match result {
                    Ok(_) => oracle.apply(u),
                    Err(_) => pass.exact.failed += 1,
                }
                if phase == Phase::Measured {
                    pass.exact.window_updates += 1;
                }
                // The tail exists only on workloads with no update in the window.
                if phase != Phase::Warmup {
                    pass.update_ns.push(ns);
                }
                ns
            }
        };
        if phase == Phase::Measured {
            pass.busy_ns.push(ns);
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let before = Counters::read(&engine);
            let (result, t0, t1) = timed(&mut tracer, root, "checkpoint", || engine.checkpoint());
            if result.is_err() {
                pass.exact.failed += 1;
            }
            if phase == Phase::Measured {
                let ns = (t1 - t0).as_nanos() as u64;
                pass.checkpoint_ns.push(ns);
                *pass.busy_ns.last_mut().expect("an op precedes it") += ns;
                pass.exact.window_checkpoints += Counters::read(&engine).since(&before);
            }
        }
        if i + 1 == measured_end {
            let now = Counters::read(&engine);
            pass.exact.lifetime = now.since(&at_start);
            pass.exact.window = now.since(&at_warm);
            pass.observed = ObservedCounters::read(&engine)
                .zip(observed_at_warm)
                .map(|(now, then)| now.since(&then));
            pass.exact.store_pages = engine.pool().num_pages() as u64;
            pass.peak_rss_mb = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        }
    }

    let (closed, t0, t1) = timed(&mut tracer, root, "close", || engine.close());
    pass.close_ms = ms(t0, t1);
    if closed.is_err() {
        pass.exact.failed += 1;
    }

    if let Some(dir) = &dir {
        if metrics {
            pass.recover_ms = time_recovery(dir.path())?;
        }
        let (engine, t0, t1) = timed(&mut tracer, root, "open", || {
            build::open(&def.engine, metrics, dir.path())
        });
        let engine = engine?;
        pass.open_ms = ms(t0, t1);
        let checks = generate_sequence(&Params {
            pr_update: 0.0,
            sequence_len: def.reopen_checks,
            seed: seed.wrapping_add(2),
            ..params.clone()
        });
        for op in &checks {
            let Query::Retrieve(q) = op else {
                unreachable!("pr_update 0 generates retrieves only")
            };
            pass.exact.attempted += 1;
            if verified(engine.retrieve(def.strategy, q), oracle.expected(q)).is_none() {
                pass.exact.failed += 1;
            }
        }
    }
    if let Some(t) = tracer {
        t.close(root);
    }
    Ok(pass)
}

/// Time `cor_wal::recover` over the closed store's own files. `open`
/// runs the same recovery again; recovery is idempotent.
fn time_recovery(dir: &Path) -> Result<f64, Error> {
    let disk = cor_pagestore::FileDisk::open(&dir.join("db.pages"))?;
    let log = cor_wal::FileLogStore::open(&dir.join("wal"))?;
    let t0 = Instant::now();
    cor_wal::recover(&disk, &log)?;
    Ok(ms(t0, Instant::now()))
}
