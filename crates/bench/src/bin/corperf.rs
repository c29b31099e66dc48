//! `corperf` — the cheap CI guard on the engine's I/O: one canonical
//! suite, two exact gates, no wall-time verdict.
//!
//! Runs every strategy over a fixed retrieve-only workload on
//! [`MemDisk`](cor_pagestore::MemDisk), K reps per leg. Two invariants
//! gate the run:
//!
//! 1. **Determinism** — every rep of a leg must return the same values
//!    and perform the same I/O (cold pool + fixed seed + MemDisk leaves
//!    nothing to vary). A drifting rep is a correctness bug, not noise.
//! 2. **Exact I/O** — with `--smoke`, reads/writes/values and the value
//!    checksum per leg must equal the committed baseline *exactly* (I/O
//!    counts are machine-independent).
//!
//! The median wall per leg is printed for orientation only. Wall-time
//! regressions are judged by `benchmark/` (ten alternating parent/change
//! pairs at paper scale), not by a millisecond smoke run.
//!
//! ```text
//! cargo run --release -p cor-bench --bin corperf [--scale F | --full]
//!     [--smoke]          tiny suite + the exact-I/O baseline gate
//!     [--baseline FILE]  baseline path (default results/corperf/baseline.json)
//!     [--reps K]         reps per leg (default 3 smoke, 5 otherwise)
//!     [--rebaseline]     rewrite the baseline from this run, skip the gate
//! ```
//!
//! The baseline record carries `schema_version`, `catalog_version` and
//! `metrics_schema_version` so it stays interpretable across format
//! changes.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

use complexobj::{Query, Strategy};
use cor_bench::{write_report, BenchConfig, JsonObj};
use cor_workload::{fnum, format_table, generate, generate_sequence, Engine, GeneratedDb, Params};

/// Baseline record format version.
const PERF_SCHEMA_VERSION: u32 = 1;

/// Median-of-K measurement of one leg.
struct LegResult {
    name: String,
    retrieves: u64,
    values: u64,
    checksum: u64,
    reads: u64,
    writes: u64,
    wall_ns: u64,
}

/// Run one strategy's leg `reps` times and take the median wall. Every rep gets a
/// freshly built engine and a cold pool — caches (the paper's value
/// cache carries eviction state) start identical, so answers and I/O
/// must agree across reps; divergence is a bug, not noise.
fn run_leg(
    params: &Params,
    generated: &GeneratedDb,
    strategy: Strategy,
    reps: usize,
) -> Result<LegResult, String> {
    let name = strategy.name();
    let sequence = generate_sequence(params);

    let mut agreed: Option<(u64, u64, u64, u64, u64)> = None;
    let mut walls: Vec<u64> = Vec::with_capacity(reps);
    for rep in 0..reps {
        let engine = Engine::builder()
            .build_workload(params, generated, strategy)
            .map_err(|e| format!("{name}: engine build failed: {e}"))?;
        let stats = engine.pool().stats().clone();
        engine
            .pool()
            .flush_and_clear()
            .map_err(|e| format!("{name}: pool flush failed: {e}"))?;
        let io_before = stats.snapshot();
        let (mut retrieves, mut values, mut checksum) = (0u64, 0u64, 0u64);
        let t0 = Instant::now();
        for q in &sequence {
            let Query::Retrieve(r) = q else { continue };
            let out = engine
                .retrieve(strategy, r)
                .map_err(|e| format!("{name}: retrieve failed: {e}"))?;
            retrieves += 1;
            for v in out.values {
                values += 1;
                checksum = checksum.wrapping_add((v as u64) ^ (v as u64).rotate_left(17));
            }
        }
        walls.push(t0.elapsed().as_nanos() as u64);
        let io = stats.snapshot().since(&io_before);
        let sig = (retrieves, values, checksum, io.reads, io.writes);
        match agreed {
            None => agreed = Some(sig),
            Some(prev) if prev != sig => {
                return Err(format!(
                    "{name}: rep {rep} diverged: {sig:?} vs rep 0 {prev:?}"
                ));
            }
            Some(_) => {}
        }
    }
    let (retrieves, values, checksum, reads, writes) = agreed.expect("reps >= 1");
    walls.sort_unstable();
    Ok(LegResult {
        name: name.to_string(),
        retrieves,
        values,
        checksum,
        reads,
        writes,
        wall_ns: walls[walls.len() / 2],
    })
}

/// The integer right after `"key":`, scanning from byte offset `from`.
/// Same targeted-scan idiom the explain replay reader uses: this binary
/// only ever reads JSON it wrote itself.
fn field_u64(s: &str, key: &str, from: usize) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = s[from..].find(&pat)? + from + pat.len();
    let rest = &s[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_record(
    params: &Params,
    smoke: bool,
    reps: usize,
    ts_secs: u64,
    legs: &[LegResult],
) -> String {
    let legs = legs.iter().map(|l| {
        JsonObj::default()
            .str("leg", &l.name)
            .raw("retrieves", l.retrieves)
            .raw("values", l.values)
            .raw("checksum", l.checksum)
            .raw("reads", l.reads)
            .raw("writes", l.writes)
            .raw("wall_ns", l.wall_ns)
            .finish()
    });
    JsonObj::default()
        .raw("ts", ts_secs)
        .stamp(PERF_SCHEMA_VERSION)
        .raw("smoke", smoke)
        .raw("reps", reps)
        .params(
            params,
            "parent_card num_top sequence_len size_cache buffer_pages shards seed",
        )
        .array("legs", legs)
        .finish()
}

/// Gate legs against the committed baseline: reads/writes/values and the
/// value checksum must match exactly. Only applies when the baseline was
/// captured with the same parameters (seed included).
fn check_baseline(baseline: &str, params: &Params, legs: &[LegResult]) -> Vec<String> {
    let mut bad = Vec::new();
    let same_params = [
        ("parent_card", params.parent_card),
        ("num_top", params.num_top),
        ("sequence_len", params.sequence_len as u64),
        ("seed", params.seed),
    ]
    .iter()
    .all(|&(key, want)| field_u64(baseline, key, 0) == Some(want));
    if !same_params {
        bad.push("baseline parameters differ from this run (re-capture with --rebaseline)".into());
        return bad;
    }
    for leg in legs {
        let pat = format!("\"leg\":\"{}\"", leg.name);
        let Some(at) = baseline.find(&pat) else {
            bad.push(format!("{}: missing from baseline", leg.name));
            continue;
        };
        for (key, got) in [
            ("retrieves", leg.retrieves),
            ("values", leg.values),
            ("checksum", leg.checksum),
            ("reads", leg.reads),
            ("writes", leg.writes),
        ] {
            let want = field_u64(baseline, key, at);
            if want != Some(got) {
                bad.push(format!(
                    "{}: {key} = {got}, baseline {}",
                    leg.name,
                    want.map_or("missing".into(), |w| w.to_string())
                ));
            }
        }
    }
    bad
}

fn main() {
    let cfg = BenchConfig::from_args();
    let smoke = cfg.has_flag("--smoke");
    let rebaseline = cfg.has_flag("--rebaseline");
    cfg.expect_flags(&["--smoke", "--rebaseline"], &["--baseline", "--reps"]);
    let baseline_path = PathBuf::from(
        cfg.value("--baseline")
            .unwrap_or("results/corperf/baseline.json"),
    );
    let reps = cfg
        .parsed::<NonZeroUsize>("--reps", "a positive integer")
        .map_or(if smoke { 3 } else { 5 }, NonZeroUsize::get);

    let params = if smoke {
        Params {
            parent_card: 200,
            num_top: 10,
            sequence_len: 40,
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
            num_top: (base.parent_card / 10).max(base.num_top),
            buffer_pages: base.buffer_pages.max(256),
            ..base
        }
    };
    println!(
        "corperf — determinism + exact-I/O guard{}\n\
         |ParentRel| = {}, {} queries, {} legs x {} reps (median wall)\n",
        if smoke { " (smoke)" } else { "" },
        params.parent_card,
        params.sequence_len,
        Strategy::ALL.len(),
        reps,
    );

    let generated = generate(&params);
    let mut legs: Vec<LegResult> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for strategy in Strategy::ALL {
        match run_leg(&params, &generated, strategy, reps) {
            Ok(leg) => legs.push(leg),
            Err(e) => failures.push(e),
        }
    }

    let rows: Vec<Vec<String>> = legs
        .iter()
        .map(|leg| {
            vec![
                leg.name.clone(),
                leg.retrieves.to_string(),
                leg.values.to_string(),
                leg.reads.to_string(),
                leg.writes.to_string(),
                fnum(leg.wall_ns as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["Leg", "Retr", "Values", "Reads", "Writes", "wall ms"],
            &rows,
        )
    );
    cfg.maybe_write_csv(
        &["Leg", "Retr", "Values", "Reads", "Writes", "wall_ms"],
        &rows,
    );

    if rebaseline {
        let ts_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let record = json_record(&params, smoke, reps, ts_secs, &legs);
        write_report(&baseline_path, &format!("{record}\n"));
    } else if smoke {
        match std::fs::read_to_string(&baseline_path) {
            Ok(baseline) => failures.extend(check_baseline(&baseline, &params, &legs)),
            Err(_) => failures.push(format!(
                "no baseline at {} (capture one with --rebaseline)",
                baseline_path.display()
            )),
        }
    }

    if failures.is_empty() {
        println!(
            "corperf{}: OK ({} legs, I/O exact{})",
            if smoke { " smoke" } else { "" },
            legs.len(),
            if smoke && !rebaseline {
                ", baseline matched"
            } else {
                ""
            }
        );
    } else {
        for f in &failures {
            eprintln!("corperf FAIL: {f}");
        }
        std::process::exit(1);
    }
}
