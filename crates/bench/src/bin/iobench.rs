//! `iobench` — batched vs page-at-a-time I/O, measured end to end.
//!
//! Runs the batched-path strategies (BFS, DFSCLUST, DFSCACHE) over the
//! same generated database twice per backend — once with the default
//! page-at-a-time knobs and once with multi-page fetch + readahead — on
//! both [`MemDisk`](cor_pagestore::MemDisk) (pure pool/CPU path) and
//! [`FileDisk`](cor_pagestore::FileDisk) (positioned preads against a
//! real file), with a cold pool before every query so the I/O path is
//! actually exercised. Reports throughput and latency quantiles per leg
//! and writes the whole comparison to `BENCH_io.json` (repo root).
//!
//! ```text
//! cargo run --release -p cor-bench --bin iobench [--scale F | --full]
//!     [--json FILE]   output path (default BENCH_io.json)
//!     [--batch N]     keys per probe window when batching (default 16)
//!     [--readahead N] pages per scan prefetch window (default 32)
//!     [--smoke]       tiny database + invariant gate, exit 1 on:
//!                     results differing between modes, batched mode
//!                     reading more pages, or any batch counter moving
//!                     with the knobs off (the batch-1 identity)
//! ```
//!
//! Batching is a physical optimisation only: both modes must return the
//! same values and read the same pages (batched mode may read fewer of
//! them twice, never more). `iobench` asserts both on every run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use complexobj::{ExecOptions, IoOptions, Query, Strategy};
use cor_bench::{write_report, BenchConfig, JsonObj};
use cor_pagestore::{BatchIoSnapshot, DiskError, DiskManager, FileDisk, PageBuf, PageId};
use cor_workload::{fnum, format_table, generate, generate_sequence, Engine, GeneratedDb, Params};

/// Which disk backs the pool for one leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disk {
    Mem,
    File,
    /// FileDisk plus a fixed per-submission latency (see [`SeekDisk`]).
    FileSeek,
}

impl Disk {
    fn name(self) -> &'static str {
        match self {
            Disk::Mem => "memdisk",
            Disk::File => "filedisk",
            Disk::FileSeek => "filedisk_seek",
        }
    }
}

/// [`FileDisk`] with a fixed latency charged per physical read
/// submission — the seek-plus-rotation cost the paper's I/O counts stand
/// for. A dev box's page cache serves a 2 KB pread in about a
/// microsecond, hiding the device cost that makes submission counts
/// matter; this wrapper restores it, so the batched path's coalescing
/// shows up in wall time the way it would on a device. Writes are not
/// delayed: they happen outside the timed window (build and pre-query
/// flush) and would only slow the benchmark down.
struct SeekDisk {
    inner: FileDisk,
    seek: std::time::Duration,
}

impl DiskManager for SeekDisk {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        std::thread::sleep(self.seek);
        self.inner.read_page(id, buf)
    }

    fn read_pages(&self, ids: &[PageId], bufs: &mut [&mut PageBuf]) -> Result<usize, DiskError> {
        let runs = self.inner.read_pages(ids, bufs)?;
        std::thread::sleep(self.seek * runs as u32);
        Ok(runs)
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        self.inner.write_page(id, buf)
    }

    fn allocate_page(&self) -> Result<PageId, DiskError> {
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }
}

/// One (strategy, disk, mode) measurement.
struct Leg {
    retrieves: usize,
    /// Order-insensitive digest of every returned value, for the
    /// results-identical invariant.
    checksum: u64,
    reads: u64,
    batch: BatchIoSnapshot,
    pool_hits: u64,
    pool_misses: u64,
    mean_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    /// Retrieves per second over the measured (in-query) time.
    qps: f64,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// What every leg of one run shares: the database, the seek charge of
/// the `filedisk_seek` legs, and the scratch page files to delete at exit.
struct Rig<'a> {
    params: &'a Params,
    generated: &'a GeneratedDb,
    seek: std::time::Duration,
    scratch: Vec<PathBuf>,
}

impl Rig<'_> {
    fn run_leg(&mut self, strategy: Strategy, disk: Disk, opts: &ExecOptions) -> Leg {
        let (params, generated, seek) = (self.params, self.generated, self.seek);
        let scratch = &mut self.scratch;
        let builder = Engine::builder().metrics(true);
        let builder = match disk {
            Disk::Mem => builder,
            Disk::File | Disk::FileSeek => {
                let path = std::env::temp_dir().join(format!(
                    "cor-iobench-{}-{}.pages",
                    std::process::id(),
                    scratch.len()
                ));
                let _ = std::fs::remove_file(&path);
                let fd = FileDisk::open(&path).expect("scratch page file opens");
                scratch.push(path);
                if disk == Disk::FileSeek {
                    builder.disk(Arc::new(SeekDisk { inner: fd, seek }))
                } else {
                    builder.disk(Arc::new(fd))
                }
            }
        };
        let engine = builder
            .build_workload(params, generated, strategy)
            .expect("database builds")
            .with_options(*opts);
        let stats = engine.pool().stats().clone();
        let io_before = stats.snapshot();
        let batch_before = stats.batch_snapshot();

        let sequence = generate_sequence(params);
        let mut checksum = 0u64;
        let mut retrieves = 0usize;
        let mut lat: Vec<u64> = Vec::new();
        for q in &sequence {
            let Query::Retrieve(r) = q else { continue };
            // Cold pool per query: every leg pays its page faults through
            // the backend under test instead of the warm frame table.
            engine.pool().flush_and_clear().expect("pool flushes");
            let t = Instant::now();
            let out = engine.retrieve(strategy, r).expect("retrieve runs");
            lat.push(t.elapsed().as_nanos() as u64);
            retrieves += 1;
            for v in out.values {
                checksum = checksum.wrapping_add((v as u64) ^ (v as u64).rotate_left(17));
            }
        }

        let reads = stats.snapshot().since(&io_before).reads;
        let batch = stats.batch_snapshot().since(&batch_before);
        let (mut pool_hits, mut pool_misses) = (0, 0);
        for shard in engine.pool().telemetry().into_iter().flatten() {
            pool_hits += shard.hits;
            pool_misses += shard.misses;
        }
        let total_ns: u64 = lat.iter().sum();
        lat.sort_unstable();
        Leg {
            retrieves,
            checksum,
            reads,
            batch,
            pool_hits,
            pool_misses,
            mean_ns: total_ns / (retrieves.max(1) as u64),
            p50_ns: quantile(&lat, 0.50),
            p99_ns: quantile(&lat, 0.99),
            qps: if total_ns > 0 {
                retrieves as f64 * 1e9 / total_ns as f64
            } else {
                0.0
            },
        }
    }
}

/// Invariants that hold for every (strategy, disk) pair; violated ones
/// come back as messages.
fn check_pair(strategy: Strategy, disk: Disk, off: &Leg, on: &Leg) -> Vec<String> {
    let ctx = format!("{} on {}", strategy.name(), disk.name());
    let mut bad = Vec::new();
    if off.checksum != on.checksum || off.retrieves != on.retrieves {
        bad.push(format!("{ctx}: batched results differ from unbatched"));
    }
    if off.batch != BatchIoSnapshot::default() {
        bad.push(format!(
            "{ctx}: batch counters moved with the knobs off ({:?})",
            off.batch
        ));
    }
    // The physical claim: batching must shrink disk submissions. Pages
    // outside the batched path cost one submission each; batched pages
    // cost their coalesced runs.
    let on_submissions = on.reads - on.batch.batch_reads.min(on.reads) + on.batch.coalesced_runs;
    if on_submissions > off.reads {
        bad.push(format!(
            "{ctx}: batching issued more disk submissions ({on_submissions} > {})",
            off.reads
        ));
    }
    // Readahead may speculatively read past a range scan's end, but every
    // wasted page must be one that was deliberately prefetched and never
    // demanded — speculation is bounded, never open-ended. The 1% slack
    // covers replacement divergence: admitting a batch in one pass
    // touches the LRU in a different order than page-at-a-time faults,
    // so a tiny pool can re-fault a handful of pages differently.
    let wasted = on.reads.saturating_sub(off.reads);
    let unconsumed = on
        .batch
        .prefetch_issued
        .saturating_sub(on.batch.prefetch_hits);
    let slack = off.reads / 100 + 16;
    if wasted > unconsumed + slack {
        bad.push(format!(
            "{ctx}: {wasted} extra pages read but only {unconsumed} unconsumed \
             prefetches (+{slack} slack)"
        ));
    }
    if on.batch.batch_reads == 0 && on.batch.prefetch_issued == 0 {
        bad.push(format!("{ctx}: knobs on but no batched I/O recorded"));
    }
    bad
}

fn json_leg(l: &Leg) -> String {
    JsonObj::default()
        .raw("retrieves", l.retrieves)
        .raw("reads", l.reads)
        .fixed("throughput_qps", l.qps, 3)
        .fixed("mean_us", l.mean_ns as f64 / 1e3, 3)
        .fixed("p50_us", l.p50_ns as f64 / 1e3, 3)
        .fixed("p99_us", l.p99_ns as f64 / 1e3, 3)
        .raw("batch_reads", l.batch.batch_reads)
        .raw("coalesced_runs", l.batch.coalesced_runs)
        .raw("prefetch_issued", l.batch.prefetch_issued)
        .raw("prefetch_hits", l.batch.prefetch_hits)
        .raw("pool_hits", l.pool_hits)
        .raw("pool_misses", l.pool_misses)
        .finish()
}

fn main() {
    let cfg = BenchConfig::from_args();
    let smoke = cfg.has_flag("--smoke");
    cfg.expect_flags(
        &["--smoke"],
        &["--json", "--batch", "--readahead", "--seek-us"],
    );
    let json_path = PathBuf::from(cfg.value("--json").unwrap_or("BENCH_io.json"));
    let io = IoOptions {
        batch: cfg.parsed("--batch", "a positive integer").unwrap_or(16),
        readahead: cfg.parsed("--readahead", "an integer").unwrap_or(32),
    };
    let seek_us: u64 = cfg.parsed("--seek-us", "an integer").unwrap_or(100);

    let params = if smoke {
        Params {
            parent_card: 200,
            num_top: 10,
            sequence_len: 12,
            size_cache: 20,
            buffer_pages: 64,
            shards: 2,
            pr_update: 0.0,
            ..Params::paper_default()
        }
    } else {
        let base = cfg.base_params();
        Params {
            pr_update: 0.0,
            // Select enough objects that BFS's planner picks the merge
            // join and the cluster scans span many leaves — the batched
            // paths this benchmark exists to measure.
            num_top: (base.parent_card / 10).max(base.num_top),
            // The paper's 20-page buffer is smaller than a readahead
            // window, so prefetched pages would be evicted before they
            // are demanded. Give the pool room to hold in-flight
            // windows; the paper-faithful figures keep their own sizes.
            // Keep a single shard: sharding scatters consecutive page
            // ids, which turns contiguous windows into singleton runs.
            buffer_pages: base.buffer_pages.max(256),
            ..base
        }
    };
    println!(
        "iobench — batched vs page-at-a-time I/O{}\n\
         |ParentRel| = {}, buffer = {} pages x {} shards, {} queries, \
         batch = {}, readahead = {}\n",
        if smoke { " (smoke)" } else { "" },
        params.parent_card,
        params.buffer_pages,
        params.shards,
        params.sequence_len,
        io.batch,
        io.readahead,
    );

    let off_opts = ExecOptions::default();
    let on_opts = ExecOptions {
        io,
        ..ExecOptions::default()
    };
    let strategies = [Strategy::Bfs, Strategy::DfsClust, Strategy::DfsCache];
    let generated = generate(&params);
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_strategies: Vec<String> = Vec::new();
    let mut rig = Rig {
        params: &params,
        generated: &generated,
        seek: std::time::Duration::from_micros(seek_us),
        scratch: Vec::new(),
    };
    for strategy in strategies {
        let mut json_strategy = JsonObj::default().str("strategy", strategy.name());
        for disk in [Disk::Mem, Disk::File, Disk::FileSeek] {
            let off = rig.run_leg(strategy, disk, &off_opts);
            let on = rig.run_leg(strategy, disk, &on_opts);
            failures.extend(check_pair(strategy, disk, &off, &on));
            let speedup = if off.qps > 0.0 { on.qps / off.qps } else { 0.0 };
            rows.push(vec![
                strategy.name().to_string(),
                disk.name().to_string(),
                fnum(off.qps),
                fnum(on.qps),
                format!("{speedup:.2}x"),
                fnum(off.p99_ns as f64 / 1e3),
                fnum(on.p99_ns as f64 / 1e3),
                on.batch.batch_reads.to_string(),
                on.batch.coalesced_runs.to_string(),
                on.batch.prefetch_issued.to_string(),
            ]);
            json_strategy = json_strategy.obj(
                disk.name(),
                JsonObj::default()
                    .raw("unbatched", json_leg(&off))
                    .raw("batched", json_leg(&on))
                    .fixed("speedup", speedup, 4),
            );
        }
        json_strategies.push(json_strategy.finish());
    }
    for path in &rig.scratch {
        let _ = std::fs::remove_file(path);
    }

    println!(
        "{}",
        format_table(
            &[
                "Strategy",
                "Disk",
                "off q/s",
                "on q/s",
                "speedup",
                "off p99us",
                "on p99us",
                "batched",
                "runs",
                "prefetch",
            ],
            &rows,
        )
    );
    let json = JsonObj::default()
        .stamp(4)
        .raw("scale", cfg.scale)
        .raw("smoke", smoke)
        .params(
            &params,
            "parent_card num_top sequence_len buffer_pages shards seed policy",
        )
        .obj(
            "io_options",
            JsonObj::default()
                .raw("batch", io.batch)
                .raw("readahead", io.readahead)
                .raw("seek_us", seek_us),
        )
        .array("strategies", json_strategies)
        .finish();
    write_report(&json_path, &format!("{json}\n"));

    if failures.is_empty() {
        println!(
            "iobench{}: OK ({} strategies x 3 disks validated)",
            if smoke { " smoke" } else { "" },
            strategies.len(),
        );
    } else {
        for f in &failures {
            eprintln!("iobench FAIL: {f}");
        }
        std::process::exit(1);
    }
}
