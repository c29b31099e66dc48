//! `crashtest` — the durability fault-injection harness.
//!
//! Runs a deterministic mixed retrieve/update/checkpoint workload on an
//! engine made by `EngineBuilder::create_on` over a [`FaultyDisk`] (the
//! raw leg's is the standard backend with a unit cache, driven by
//! DFSCACHE), kills the data disk at a randomized injected write (clean
//! drop or torn page), recovers the surviving store from the log, and
//! verifies every live page byte-identically against an *oracle*: the
//! identical run allowed to finish the failing write, then flushed — the
//! exact state the crashed run would have reached. Recovery is then run
//! a second time to prove redo idempotence.
//!
//! ```text
//! cargo run -p cor-bench --release --bin crashtest [--points N]
//!     [--seed S]    workload + sampling seed (default 42)
//!     [--points N]  injected crash points (default 100)
//!     [--smoke]     fixed seed, 6 crash points (7 with --logical) — the CI gate
//!     [--logical]   logical verification through the lifecycle API:
//!                   crash points rotate over all four strategy backends
//!                   (standard, clustered, levels, procedural) plus a
//!                   BFS leg that crashes while a query temporary is
//!                   live; each crash is recovered by
//!                   `EngineBuilder::open_on`, and the reopened engine's
//!                   *query answers* and IoStats-visible structure are
//!                   checked against a fail-stop oracle's — not just
//!                   page bytes
//! ```
//!
//! A report lands in `results/crashtest/report.{txt,json}` (logical mode:
//! `report-logical.{txt,json}`) — under `target/check/crashtest/` for a
//! `--smoke` run, so the gate leaves the tree clean; exit status is
//! non-zero if any crash point fails verification.

use complexobj::procedural::ProcCaching;
use complexobj::{CacheConfig, Query, RetAttr, RetrieveQuery, Strategy};
use cor_bench::{write_report, BenchConfig, JsonObj};
use cor_obs::flight::{self, FlightKind};
use cor_obs::FlightEvent;
use cor_pagestore::{
    AioConfig, AioEngine, DiskError, DiskManager, FaultMode, FaultyDisk, IoStats, MemDisk, PageId,
    TicketStatus, PAGE_SIZE,
};
use cor_wal::{recover, FsyncPolicy, MemLogStore, RecoveryStats, WalConfig};
use cor_workload::{
    generate, generate_matrix, generate_sequence, Engine, EngineSpec, GeneratedDb, Params,
    ENGINE_CATALOG_VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Checkpoint every this many queries, so crash points land before,
/// between, and after checkpoints (exercising DPT redo horizons and
/// segment GC).
const CHECKPOINT_EVERY: usize = 16;

fn params(seed: u64) -> Params {
    Params {
        parent_card: 150,
        num_top: 5,
        sequence_len: 60,
        buffer_pages: 12,
        size_cache: 20,
        pr_update: 0.4,
        seed,
        ..Params::paper_default()
    }
}

struct Rig {
    faulty: Arc<FaultyDisk<Arc<MemDisk>>>,
    store: Arc<MemLogStore>,
    engine: Engine,
}

thread_local! {
    static IN_WORKLOAD: Cell<bool> = const { Cell::new(false) };
}

/// Install a panic hook that stays silent for panics raised inside
/// [`run_workload`] and delegates to the default hook everywhere else.
/// Access-layer scan iterators `.expect()` their pool reads, so a disk
/// killed mid-query surfaces as a panic rather than an `Err` — for this
/// harness that panic *is* the simulated process death and should not
/// spam a backtrace per crash point.
fn install_quiet_hook() {
    let default = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !IN_WORKLOAD.with(|f| f.get()) {
            default(info);
        }
    }));
}

/// Run the workload until it finishes or the disk dies. Returns how many
/// queries completed. A query that panics (dead disk reached through an
/// infallible scan path) counts the same as one that returns `Err`: the
/// run stops there. The `.expect` sites fire on an already-returned
/// `Result`, after page guards are dropped, so the pool remains usable —
/// the oracle still flushes after its single injected failure.
fn run_workload(engine: &Engine, sequence: &[Query], strategy: Strategy) -> usize {
    IN_WORKLOAD.with(|f| f.set(true));
    let mut completed = sequence.len();
    for (i, q) in sequence.iter().enumerate() {
        let ok = panic::catch_unwind(AssertUnwindSafe(|| match q {
            Query::Retrieve(r) => engine.retrieve(strategy, r).is_ok(),
            Query::Update(u) => engine.update(u).is_ok(),
        }))
        .unwrap_or(false);
        if !ok {
            completed = i;
            break;
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 && engine.checkpoint().is_err() {
            completed = i + 1;
            break;
        }
    }
    IN_WORKLOAD.with(|f| f.set(false));
    completed
}

struct PointResult {
    nth_write: u64,
    mode: &'static str,
    queries_done: usize,
    stats: RecoveryStats,
    pages_compared: u32,
    pages_excluded: usize,
    failures: Vec<String>,
    flight: Vec<FlightEvent>,
}

/// How many trailing flight events each crash point keeps as its black
/// box in the report.
const FLIGHT_TAIL: usize = 12;

fn mode_tag(mode_name: &str) -> u64 {
    u64::from(mode_name == "torn-page")
}

/// The black box for the point just run: the journal tail since the
/// `PointMark` stamped at its start (everything, ring permitting, that
/// the engines did around the injected fault), capped at [`FLIGHT_TAIL`]
/// most recent events.
fn point_flight_tail(point: u64) -> Vec<FlightEvent> {
    let events = flight::snapshot();
    let start = events
        .iter()
        .rposition(|e| e.kind == FlightKind::PointMark && e.a == point)
        .map(|i| i + 1)
        .unwrap_or(0);
    let tail = &events[start..];
    tail[tail.len().saturating_sub(FLIGHT_TAIL)..].to_vec()
}

/// The tail of one crash point's JSON record: why it failed (if it did)
/// and its black box.
fn json_outcome(obj: JsonObj, failures: &[String], events: &[FlightEvent]) -> String {
    obj.array(
        "failures",
        failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'"))),
    )
    .array(
        "flight",
        events.iter().map(|e| {
            JsonObj::default()
                .str("kind", e.kind.name())
                .raw("t_ns", e.t_ns)
                .raw("a", e.a)
                .raw("b", e.b)
                .raw("c", e.c)
                .finish()
        }),
    )
    .finish()
}

/// Write one run's `report{suffix}.{txt,json}` and `flight{suffix}.json`
/// and print the text report: a `--smoke` run (the `check.sh` gate) under
/// `target/check/crashtest`, anything else under `results/crashtest`.
fn write_reports(smoke: bool, suffix: &str, txt: &str, json: &str) {
    let dir = std::path::Path::new(if smoke {
        "target/check/crashtest"
    } else {
        "results/crashtest"
    });
    write_report(&dir.join(format!("report{suffix}.txt")), txt);
    write_report(&dir.join(format!("report{suffix}.json")), json);
    write_report(
        &dir.join(format!("flight{suffix}.json")),
        &flight::dump_json(),
    );
    print!("{txt}");
}

/// Attach the point's flight tail; an empty black box at an injected
/// fault is itself a failure (the recorder must witness every crash).
fn attach_flight(point: u64, failures: &mut Vec<String>) -> Vec<FlightEvent> {
    let tail = point_flight_tail(point);
    if tail.is_empty() {
        failures.push("flight recorder empty at injected fault".into());
    }
    tail
}

/// Byte-compare the recovered store against the oracle's. Pages on the
/// oracle's free list at the crash instant hold garbage by definition —
/// among them every page of a query temporary that was live when the
/// disk died, which the aborted query freed as it unwound — and every
/// other page must match exactly. Returns how many pages matched.
fn compare_live_pages(
    disk: &MemDisk,
    oracle_disk: &MemDisk,
    freed: &[PageId],
    failures: &mut Vec<String>,
) -> u32 {
    if disk.num_pages() != oracle_disk.num_pages() {
        failures.push(format!(
            "page count: recovered {} vs oracle {}",
            disk.num_pages(),
            oracle_disk.num_pages()
        ));
    }
    let mut compared = 0;
    let mut a = [0u8; PAGE_SIZE];
    let mut b = [0u8; PAGE_SIZE];
    for pid in 0..disk.num_pages().min(oracle_disk.num_pages()) {
        if freed.contains(&pid) {
            continue;
        }
        disk.read_page(pid, &mut a)
            .expect("recovered page readable");
        oracle_disk
            .read_page(pid, &mut b)
            .expect("oracle page readable");
        if a != b {
            failures.push(format!("page {pid} differs from oracle"));
        } else {
            compared += 1;
        }
    }
    compared
}

fn run_point(
    generated: &GeneratedDb,
    p: &Params,
    sequence: &[Query],
    nth: u64,
    mode: FaultMode,
    mode_name: &'static str,
) -> PointResult {
    // Oracle: the identical run, but the injected write *lands* before
    // the op fails (FailStop), so flushing afterwards materializes the
    // exact state the log describes at the crash instant.
    let oracle = build_rig(&logical_spec(BackendKind::Standard, p, generated), p);
    oracle.faulty.arm(nth, FaultMode::FailStop);
    let oracle_done = run_workload(&oracle.engine, sequence, Strategy::DfsCache);
    let freed = oracle.engine.pool().free_page_ids();
    oracle
        .engine
        .pool()
        .flush_all()
        .expect("oracle flush after disarmed fail-stop");
    let oracle_disk: Arc<MemDisk> = oracle.faulty.inner().clone();

    // Faulty run: same ops, same nth write, but the disk dies there.
    let rig = build_rig(&logical_spec(BackendKind::Standard, p, generated), p);
    rig.faulty.arm(nth, mode);
    flight::record(FlightKind::FaultInjected, nth, mode_tag(mode_name), 0);
    let queries_done = run_workload(&rig.engine, sequence, Strategy::DfsCache);
    let Rig {
        faulty,
        store,
        engine,
    } = rig;
    drop(engine); // dirty frames are lost with the "process"
    store.crash(); // and so is the log's unsynced tail (none: fsync Always)

    let mut failures = Vec::new();
    if queries_done != oracle_done {
        failures.push(format!(
            "divergence: faulty run served {queries_done} queries, oracle {oracle_done}"
        ));
    }

    let disk: &Arc<MemDisk> = faulty.inner();
    let stats = match recover(disk, store.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("recovery failed: {e}"));
            RecoveryStats::default()
        }
    };

    let mut pages_compared = 0;
    if failures.is_empty() {
        pages_compared = compare_live_pages(disk, &oracle_disk, &freed, &mut failures);

        // Redo idempotence: a second recovery pass must be a no-op.
        let before: Vec<[u8; PAGE_SIZE]> = (0..disk.num_pages())
            .map(|pid| {
                let mut buf = [0u8; PAGE_SIZE];
                disk.read_page(pid, &mut buf).unwrap();
                buf
            })
            .collect();
        match recover(disk, store.as_ref()) {
            Ok(_) => {
                let mut a = [0u8; PAGE_SIZE];
                for (pid, prev) in before.iter().enumerate() {
                    disk.read_page(pid as u32, &mut a).unwrap();
                    if &a != prev {
                        failures.push(format!("double recovery changed page {pid}"));
                    }
                }
            }
            Err(e) => failures.push(format!("second recovery failed: {e}")),
        }
    }

    PointResult {
        nth_write: nth,
        mode: mode_name,
        queries_done,
        stats,
        pages_compared,
        pages_excluded: freed.len(),
        failures,
        flight: Vec::new(),
    }
}

// ===================== logical verification mode =====================

/// The legs the logical mode rotates over: the four strategy backends
/// with the strategy used to drive each one's workload, plus a BFS leg
/// on the standard backend whose crash points are the writes issued
/// inside retrieves — the temporary's forced pages and whatever its
/// query evicts — so they land while an unlogged temporary is live.
const BACKENDS: [(BackendKind, &str, Strategy); 5] = [
    (BackendKind::Standard, "standard", Strategy::DfsCache),
    (BackendKind::Clustered, "clustered", Strategy::DfsClust),
    (BackendKind::Levels, "levels", Strategy::Dfs),
    (BackendKind::Proc, "proc", Strategy::Dfs),
    (BackendKind::Standard, "bfs", Strategy::Bfs),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    Standard,
    Clustered,
    Levels,
    Proc,
}

fn logical_spec(kind: BackendKind, p: &Params, generated: &GeneratedDb) -> EngineSpec {
    match kind {
        BackendKind::Standard => EngineSpec::Standard(generated.spec.clone()),
        BackendKind::Clustered => EngineSpec::for_strategy(p, generated, Strategy::DfsClust),
        BackendKind::Levels => {
            EngineSpec::Levels(vec![generated.spec.clone(), generated.spec.clone()])
        }
        BackendKind::Proc => EngineSpec::Procedural(
            generate_matrix(p).proc_spec,
            ProcCaching::OutsideValues(p.size_cache),
        ),
    }
}

/// Build a lifecycle engine (`EngineBuilder::create_on`) over a faulty
/// mem-disk, logged under fsync `Always` — both legs' one rig (the raw
/// leg's is the standard backend). The store
/// gets a persistent catalog and is reopenable by `open_on` with no spec.
fn build_rig(spec: &EngineSpec, p: &Params) -> Rig {
    let disk = Arc::new(MemDisk::new());
    let faulty = Arc::new(FaultyDisk::new(disk));
    let store = Arc::new(MemLogStore::new());
    let engine = Engine::builder()
        .pool_pages(p.buffer_pages)
        .cache(CacheConfig {
            capacity: p.size_cache,
            ..CacheConfig::default()
        })
        .wal_config(WalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 64 * 1024,
        })
        .create_on(faulty.clone(), store.clone(), spec)
        .expect("lifecycle create on a fresh store");
    Rig {
        faulty,
        store,
        engine,
    }
}

/// The fixed verification suite: range retrieves over several windows and
/// both ret attributes, answers canonicalized by sorting. Returns one
/// string per probe so mismatches name the query that diverged.
fn probe_answers(engine: &Engine, strategy: Strategy) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for (lo, hi) in [(0u64, 9u64), (40, 59), (0, 149)] {
        for attr in [RetAttr::Ret1, RetAttr::Ret2] {
            let q = RetrieveQuery { lo, hi, attr };
            let mut v = engine
                .retrieve(strategy, &q)
                .map_err(|e| format!("retrieve {lo}..{hi} {attr:?}: {e}"))?
                .values;
            v.sort_unstable();
            out.push(format!("{lo}-{hi}-{attr:?}:{v:?}"));
        }
    }
    Ok(out)
}

/// Deep structural snapshot for OID-backed engines: the encoded catalog
/// payload of every level (file roots, allocator counters, schemas and
/// reconciled cache directories). Empty for procedural engines, whose
/// structure is covered by answers + sequence I/O + cache counters.
fn structural_snapshot(engine: &Engine) -> Vec<Vec<u8>> {
    engine
        .levels()
        .iter()
        .map(|db| {
            let mut e = complexobj::persist::Enc::default();
            db.save_state().encode(&mut e);
            e.0
        })
        .collect()
}

struct LogicalResult {
    backend: &'static str,
    nth_write: u64,
    mode: &'static str,
    queries_done: usize,
    stats: RecoveryStats,
    pages_excluded: usize,
    probes: usize,
    failures: Vec<String>,
    flight: Vec<FlightEvent>,
}

fn run_logical_point(
    backend: (BackendKind, &'static str, Strategy),
    p: &Params,
    generated: &GeneratedDb,
    sequence: &[Query],
    verify_sequence: &[Query],
    fault: (u64, FaultMode, &'static str),
) -> LogicalResult {
    let (kind, backend_name, strategy) = backend;
    let (nth, mode, mode_name) = fault;
    let spec = logical_spec(kind, p, generated);

    // Oracle: identical run, the injected write lands (fail-stop), then
    // everything is flushed — the state the log describes at the crash.
    // It is reopened through the very same lifecycle door as the crashed
    // run, so both sides perform identical open-time reconciliation.
    let oracle = build_rig(&spec, p);
    oracle.faulty.arm(nth, FaultMode::FailStop);
    let oracle_done = run_workload(&oracle.engine, sequence, strategy);
    let freed = oracle.engine.pool().free_page_ids();
    oracle
        .engine
        .pool()
        .flush_all()
        .expect("oracle flush after disarmed fail-stop");
    let oracle_disk: Arc<MemDisk> = oracle.faulty.inner().clone();
    let oracle_store = oracle.store.clone();
    drop(oracle.engine);

    // Crashed run: same ops, same nth write, disk dies there.
    let rig = build_rig(&spec, p);
    rig.faulty.arm(nth, mode);
    flight::record(FlightKind::FaultInjected, nth, mode_tag(mode_name), 0);
    let queries_done = run_workload(&rig.engine, sequence, strategy);
    let Rig {
        faulty,
        store,
        engine,
    } = rig;
    drop(engine); // dirty frames die with the "process"
    store.crash(); // unsynced log tail too (none: fsync Always)
    let disk: Arc<MemDisk> = faulty.inner().clone();

    let mut failures = Vec::new();
    if queries_done != oracle_done {
        failures.push(format!(
            "divergence: crashed run served {queries_done} queries, oracle {oracle_done}"
        ));
    }

    // Recovery stats for the report; open_on replays again (idempotent).
    let stats = match recover(disk.as_ref(), store.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("recovery failed: {e}"));
            RecoveryStats::default()
        }
    };

    let mut probes = 0;
    if failures.is_empty() {
        // Before the stores are reopened (which writes to both): every
        // page the oracle does not hold free must have recovered exactly.
        compare_live_pages(&disk, &oracle_disk, &freed, &mut failures);
    }
    if failures.is_empty() {
        let reopen = |d: Arc<MemDisk>, s: Arc<MemLogStore>| {
            Engine::builder()
                .open_on(d, s)
                .map_err(|e| format!("open failed: {e}"))
        };
        match (reopen(disk, store), reopen(oracle_disk, oracle_store)) {
            (Ok(recovered), Ok(oracle_eng)) => {
                // 1. Retrieval answers.
                match (
                    probe_answers(&recovered, strategy),
                    probe_answers(&oracle_eng, strategy),
                ) {
                    (Ok(a), Ok(b)) => {
                        probes = a.len();
                        for (x, y) in a.iter().zip(&b) {
                            if x != y {
                                failures.push(format!("answer diverged: {x} vs oracle {y}"));
                            }
                        }
                    }
                    (Err(e), _) => failures.push(format!("recovered probe: {e}")),
                    (_, Err(e)) => failures.push(format!("oracle probe: {e}")),
                }
                // 2. A measured sequence: logical results AND the paper's
                // cost metric must match (identical pages + identical
                // open ⇒ identical I/O), both sides run identically.
                match (
                    recovered.run_sequence(strategy, verify_sequence),
                    oracle_eng.run_sequence(strategy, verify_sequence),
                ) {
                    (Ok(a), Ok(b)) => {
                        if (
                            a.total_io,
                            a.par_io,
                            a.child_io,
                            a.update_io,
                            a.values_returned,
                        ) != (
                            b.total_io,
                            b.par_io,
                            b.child_io,
                            b.update_io,
                            b.values_returned,
                        ) {
                            failures.push(format!(
                                "sequence stats diverged: io {}/{}/{}/{} values {} vs oracle io {}/{}/{}/{} values {}",
                                a.total_io, a.par_io, a.child_io, a.update_io, a.values_returned,
                                b.total_io, b.par_io, b.child_io, b.update_io, b.values_returned,
                            ));
                        }
                        probes += 1;
                    }
                    (Err(e), _) => failures.push(format!("recovered sequence: {e}")),
                    (_, Err(e)) => failures.push(format!("oracle sequence: {e}")),
                }
                // 3. Structural state (OID backends): encoded snapshots —
                // file roots, allocators, schemas, cache directories —
                // must be byte-equal after the identical verify load.
                let a = structural_snapshot(&recovered);
                let b = structural_snapshot(&oracle_eng);
                if a != b {
                    failures.push("structural snapshot diverged from oracle".into());
                } else {
                    probes += a.len();
                }
            }
            (Err(e), _) => failures.push(format!("recovered store: {e}")),
            (_, Err(e)) => failures.push(format!("oracle store: {e}")),
        }
    }

    LogicalResult {
        backend: backend_name,
        nth_write: nth,
        mode: mode_name,
        queries_done,
        stats,
        pages_excluded: freed.len(),
        probes,
        failures,
        flight: Vec::new(),
    }
}

/// The BFS leg's dry run: issue the operations [`run_workload`] issues (no
/// fault is armed, so none fails) and return the ordinals — 1-based,
/// post-build — of the disk writes that happened inside a retrieve.
fn writes_inside_retrieves(dry: &Rig, sequence: &[Query]) -> Vec<u64> {
    let base = dry.faulty.writes_observed();
    let mut inside = Vec::new();
    for (i, q) in sequence.iter().enumerate() {
        match q {
            Query::Retrieve(r) => {
                let before = dry.faulty.writes_observed() - base;
                dry.engine.retrieve(Strategy::Bfs, r).expect("dry retrieve");
                inside.extend(before + 1..=dry.faulty.writes_observed() - base);
            }
            Query::Update(u) => {
                dry.engine.update(u).expect("dry update");
            }
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            dry.engine.checkpoint().expect("dry checkpoint");
        }
    }
    inside
}

fn run_logical(seed: u64, points: usize, smoke: bool) -> bool {
    let p = params(seed);
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    // The verify sequence reuses a deterministic prefix of the workload:
    // retrieves and updates both sides apply identically post-recovery.
    let verify_sequence: Vec<Query> = sequence.iter().take(12).cloned().collect();

    // Per-leg crash points from a dry run each: the workload's writes,
    // 1-based and post-build. They stop at the end of the workload — the
    // final flush is not part of it, so the oracle's fail-stop always
    // fires while queries are still running and its flush stays
    // fault-free. The BFS leg keeps only the writes issued inside
    // retrieves (see [`BACKENDS`]).
    let crash_writes: Vec<Vec<u64>> = BACKENDS
        .iter()
        .map(|(kind, name, strategy)| {
            let spec = logical_spec(*kind, &p, &generated);
            let dry = build_rig(&spec, &p);
            let base = dry.faulty.writes_observed();
            let writes: Vec<u64> = if *strategy == Strategy::Bfs {
                writes_inside_retrieves(&dry, &sequence)
            } else {
                let done = run_workload(&dry.engine, &sequence, *strategy);
                assert_eq!(done, sequence.len(), "{name}: dry run must complete");
                (1..=dry.faulty.writes_observed() - base).collect()
            };
            assert!(!writes.is_empty(), "{name}: workload issues no writes");
            writes
        })
        .collect();

    eprintln!(
        "crashtest --logical: seed {seed}, {} queries, {points} crash points over {} legs \
         (candidate writes: {})",
        sequence.len(),
        BACKENDS.len(),
        BACKENDS
            .iter()
            .zip(&crash_writes)
            .map(|((_, name, _), w)| format!("{name}={}", w.len()))
            .collect::<Vec<_>>()
            .join(" "),
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_47E5_7000_0002);
    let mut results: Vec<LogicalResult> = Vec::with_capacity(points);
    for i in 0..points {
        let b = i % BACKENDS.len();
        let nth = crash_writes[b][rng.random_range(1..=crash_writes[b].len()) - 1];
        let (mode, mode_name) = if i % 2 == 0 {
            (FaultMode::CrashDrop, "crash-drop")
        } else {
            (
                FaultMode::CrashTorn {
                    keep: rng.random_range(1..PAGE_SIZE),
                },
                "torn-page",
            )
        };
        flight::record(FlightKind::PointMark, i as u64, 0, 0);
        let mut r = run_logical_point(
            BACKENDS[b],
            &p,
            &generated,
            &sequence,
            &verify_sequence,
            (nth, mode, mode_name),
        );
        r.flight = attach_flight(i as u64, &mut r.failures);
        if !r.failures.is_empty() {
            eprintln!(
                "  point {i}: {} write {} ({}) FAILED: {}",
                r.backend,
                r.nth_write,
                r.mode,
                r.failures.join("; ")
            );
        }
        results.push(r);
    }

    let failed: Vec<&LogicalResult> = results.iter().filter(|r| !r.failures.is_empty()).collect();
    let mut txt = String::new();
    txt.push_str(&format!(
        "crashtest --logical  seed={seed}  queries={}  catalog_version={ENGINE_CATALOG_VERSION}\n\
         points={}  passed={}  failed={}\n",
        sequence.len(),
        results.len(),
        results.len() - failed.len(),
        failed.len(),
    ));
    for (kind, name, _) in &BACKENDS {
        let of_kind: Vec<&LogicalResult> = results.iter().filter(|r| r.backend == *name).collect();
        let ok = of_kind.iter().filter(|r| r.failures.is_empty()).count();
        txt.push_str(&format!("  {name}: {ok}/{} ok\n", of_kind.len()));
        let _ = kind;
    }
    txt.push_str(
        "\npoint  backend    write  mode        queries  redo  excluded  probes  status\n",
    );
    for (i, r) in results.iter().enumerate() {
        txt.push_str(&format!(
            "{:>5}  {:<9}  {:>5}  {:<10}  {:>7}  {:>4}  {:>8}  {:>6}  {}\n",
            i,
            r.backend,
            r.nth_write,
            r.mode,
            r.queries_done,
            r.stats.images_applied + r.stats.deltas_applied,
            r.pages_excluded,
            r.probes,
            if r.failures.is_empty() { "ok" } else { "FAIL" },
        ));
    }

    let json_points = results.iter().map(|r| {
        let obj = JsonObj::default()
            .str("backend", r.backend)
            .raw("nth_write", r.nth_write)
            .str("mode", r.mode)
            .raw("queries_done", r.queries_done)
            .raw("records_scanned", r.stats.records_scanned)
            .raw("probes", r.probes);
        json_outcome(obj, &r.failures, &r.flight)
    });
    let json = JsonObj::default()
        .raw("schema_version", 1)
        .raw("catalog_version", ENGINE_CATALOG_VERSION)
        .str("mode", "logical")
        .raw("seed", seed)
        .raw("queries", sequence.len())
        .raw("points", results.len())
        .raw("passed", results.len() - failed.len())
        .raw("failed", failed.len())
        .array("points_detail", json_points)
        .finish();
    write_reports(smoke, "-logical", &txt, &format!("{json}\n"));
    failed.is_empty()
}

/// Pre-flight for the async submission path over a faulty store: a read
/// fault that fires while a batch is in flight must poison the ticket —
/// every harvest surface yields the error, and a failed page's buffer is
/// never touched with partial bytes — while the batch's healthy runs
/// still deliver exact page images. After a crash fault kills the disk,
/// every subsequent submission must come back `Crashed`.
///
/// The thread-pool backend reads through the `DiskManager` trait, so
/// these submissions tick the same per-page fault ordinals as the
/// synchronous path.
fn aio_fault_preflight() -> Vec<String> {
    let mut bad = Vec::new();
    let faulty = Arc::new(FaultyDisk::new(Arc::new(MemDisk::new())));
    let mut images: Vec<(PageId, [u8; PAGE_SIZE])> = Vec::new();
    for i in 0..12u8 {
        let pid = faulty.allocate_page().expect("preflight allocate");
        let page = [i ^ 0x5A; PAGE_SIZE];
        faulty.write_page(pid, &page).expect("preflight write");
        images.push((pid, page));
    }
    let stats = Arc::new(IoStats::default());
    let engine = AioEngine::new(
        faulty.clone() as Arc<dyn DiskManager>,
        Arc::clone(&stats),
        AioConfig::with_depth(4),
    );

    // Three separated runs in one batch. FaultyDisk reads page-at-a-time
    // even under read_pages, so the 5th read of the batch — wherever the
    // pool's worker interleaving places it — fires mid-flight.
    let ids: Vec<PageId> = images
        .iter()
        .map(|(p, _)| *p)
        .filter(|p| *p != images[4].0 && *p != images[8].0)
        .collect();
    faulty.arm(5, FaultMode::ShortRead);
    let ticket = engine.submit(&ids);
    if ticket.wait().is_ok() {
        bad.push("aio preflight: in-flight read fault did not poison the ticket".into());
    }
    if ticket.poll() != TicketStatus::Poisoned {
        bad.push(format!(
            "aio preflight: poll reports {:?} on a failed batch",
            ticket.poll()
        ));
    }
    if faulty.faults_fired() != 1 {
        bad.push(format!(
            "aio preflight: expected exactly one injected fault, saw {}",
            faulty.faults_fired()
        ));
    }
    let mut failed_pages = 0usize;
    for c in ticket.into_completions() {
        let mut buf = [0xEEu8; PAGE_SIZE];
        match c.wait_into(&mut buf) {
            Ok(()) => {
                let want = images
                    .iter()
                    .find(|(p, _)| *p == c.page_id())
                    .map(|(_, img)| img)
                    .expect("completion for a requested page");
                if buf != *want {
                    bad.push(format!(
                        "aio preflight: page {} harvested with wrong bytes",
                        c.page_id()
                    ));
                }
            }
            Err(_) => {
                failed_pages += 1;
                if buf != [0xEEu8; PAGE_SIZE] {
                    bad.push(format!(
                        "aio preflight: failed completion for page {} left partial bytes",
                        c.page_id()
                    ));
                }
            }
        }
    }
    if failed_pages == 0 {
        bad.push("aio preflight: no per-page completion reported the fault".into());
    }

    // Kill the store (CrashDrop on the next write), then submit again:
    // the dead disk must fail every run with `Crashed`.
    faulty.arm(1, FaultMode::CrashDrop);
    let garbage = [0u8; PAGE_SIZE];
    if faulty.write_page(images[0].0, &garbage).is_ok() {
        bad.push("aio preflight: armed CrashDrop write unexpectedly succeeded".into());
    }
    let ticket = engine.submit(&ids);
    match ticket.wait() {
        Err(DiskError::Crashed) => {}
        other => bad.push(format!(
            "aio preflight: submission on a dead disk returned {other:?}, \
             expected Err(Crashed)"
        )),
    }
    if ticket.poll() != TicketStatus::Poisoned {
        bad.push("aio preflight: dead-disk ticket is not poisoned".into());
    }
    bad
}

fn main() {
    let cfg = BenchConfig::from_args(&["--smoke", "--logical"], &["--points"]);
    let smoke = cfg.has_flag("--smoke");
    let logical = cfg.has_flag("--logical");
    let seed = cfg.seed.filter(|_| !smoke).unwrap_or(42);
    let points = if smoke {
        // One more in logical mode: the BFS leg adds a crash point to the
        // rotation instead of taking one from a backend.
        6 + usize::from(logical)
    } else {
        cfg.parsed("--points", "a positive integer").unwrap_or(100)
    };

    // Order matters: the flight dump hook must sit *below* the quiet
    // hook, so simulated process deaths inside the workload stay silent
    // (the quiet hook swallows them before the chain reaches the dump)
    // while any real harness panic still dumps the black box.
    flight::install_panic_dump();
    flight::enable(true);
    install_quiet_hook();
    let preflight = aio_fault_preflight();
    if !preflight.is_empty() {
        for f in &preflight {
            eprintln!("crashtest FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("crashtest: aio fault preflight OK (poisoned tickets, no partial bytes)");
    if logical {
        if !run_logical(seed, points, smoke) {
            std::process::exit(1);
        }
        return;
    }
    let p = params(seed);
    let generated = generate(&p);
    let sequence = generate_sequence(&p);

    // Dry run: how many data-page writes does the full workload issue?
    // Crash points are sampled from that budget (1-based, post-build).
    let dry = build_rig(&logical_spec(BackendKind::Standard, &p, &generated), &p);
    let base = dry.faulty.writes_observed();
    let done = run_workload(&dry.engine, &sequence, Strategy::DfsCache);
    assert_eq!(done, sequence.len(), "dry run must complete");
    // Budget stops at the end of the workload (no final flush) so the
    // oracle's fail-stop always fires while queries are still running.
    let budget = dry.faulty.writes_observed() - base;
    assert!(budget > 0, "workload issues no writes — nothing to test");
    drop(dry);

    eprintln!(
        "crashtest: seed {seed}, {} queries, {budget} workload writes, {points} crash points",
        sequence.len()
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_47E5_7000_0001);
    let mut results: Vec<PointResult> = Vec::with_capacity(points);
    for i in 0..points {
        let nth = rng.random_range(1..=budget);
        // Alternate clean write loss with torn pages (a random prefix of
        // the new bytes lands over the old page).
        let (mode, name) = if i % 2 == 0 {
            (FaultMode::CrashDrop, "crash-drop")
        } else {
            (
                FaultMode::CrashTorn {
                    keep: rng.random_range(1..PAGE_SIZE),
                },
                "torn-page",
            )
        };
        flight::record(FlightKind::PointMark, i as u64, 0, 0);
        let mut r = run_point(&generated, &p, &sequence, nth, mode, name);
        r.flight = attach_flight(i as u64, &mut r.failures);
        if !r.failures.is_empty() {
            eprintln!(
                "  point {i}: write {} ({}) FAILED: {}",
                r.nth_write,
                r.mode,
                r.failures.join("; ")
            );
        }
        results.push(r);
    }

    let failed: Vec<&PointResult> = results.iter().filter(|r| !r.failures.is_empty()).collect();
    let total_redo: u64 = results
        .iter()
        .map(|r| r.stats.images_applied + r.stats.deltas_applied)
        .sum();
    let total_skip: u64 = results.iter().map(|r| r.stats.deltas_skipped).sum();
    let torn_points = results.iter().filter(|r| r.mode == "torn-page").count();
    let with_ckpt = results
        .iter()
        .filter(|r| r.stats.checkpoint_lsn.is_some())
        .count();

    let mut txt = String::new();
    txt.push_str(&format!(
        "crashtest  seed={seed}  queries={}  workload_writes={budget}\n\
         points={}  crash_drop={}  torn_page={torn_points}\n\
         passed={}  failed={}\n\
         recovered_with_checkpoint={with_ckpt}\n\
         records_redone={total_redo}  deltas_skipped={total_skip}\n",
        sequence.len(),
        results.len(),
        results.len() - torn_points,
        results.len() - failed.len(),
        failed.len(),
    ));
    txt.push_str("\npoint  write  mode        queries  redo  compared  excluded  status\n");
    for (i, r) in results.iter().enumerate() {
        txt.push_str(&format!(
            "{:>5}  {:>5}  {:<10}  {:>7}  {:>4}  {:>8}  {:>8}  {}\n",
            i,
            r.nth_write,
            r.mode,
            r.queries_done,
            r.stats.images_applied + r.stats.deltas_applied,
            r.pages_compared,
            r.pages_excluded,
            if r.failures.is_empty() { "ok" } else { "FAIL" },
        ));
    }

    let json_points = results.iter().map(|r| {
        let obj = JsonObj::default()
            .raw("nth_write", r.nth_write)
            .str("mode", r.mode)
            .raw("queries_done", r.queries_done)
            .raw("records_scanned", r.stats.records_scanned)
            .raw("images_applied", r.stats.images_applied)
            .raw("deltas_applied", r.stats.deltas_applied)
            .raw("deltas_skipped", r.stats.deltas_skipped)
            .raw(
                "checkpoint_lsn",
                r.stats
                    .checkpoint_lsn
                    .map_or("null".into(), |l| l.to_string()),
            )
            .raw("pages_compared", r.pages_compared)
            .raw("pages_excluded", r.pages_excluded);
        json_outcome(obj, &r.failures, &r.flight)
    });
    let json = JsonObj::default()
        .raw("schema_version", 1)
        .raw("seed", seed)
        .raw("queries", sequence.len())
        .raw("workload_writes", budget)
        .raw("points", results.len())
        .raw("passed", results.len() - failed.len())
        .raw("failed", failed.len())
        .array("points_detail", json_points)
        .finish();
    write_reports(smoke, "", &txt, &format!("{json}\n"));

    if !failed.is_empty() {
        std::process::exit(1);
    }
}
