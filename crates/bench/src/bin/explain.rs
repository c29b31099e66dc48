//! `explain` — the per-query I/O profiler: run every strategy with phase
//! attribution on, print the per-phase breakdown beside the analytical
//! cost model's prediction, and capture the run as JSONL for
//! deterministic replay.
//!
//! ```text
//! cargo run -p cor-bench --release --bin explain [--scale F | --full]
//!     [--jsonl FILE]  trace path (default results/explain/explain.jsonl)
//!     [--replay FILE] re-run the captured configuration and verify the
//!                     deterministic fields (strategy, per-phase reads
//!                     and writes, totals) match exactly; exit 1 on drift
//!     [--smoke]       tiny database; assert every named phase shows up,
//!                     per-phase I/O sums to totals, and the prediction's
//!                     relative error is finite and loosely bounded (CI)
//! ```
//!
//! The capture file starts with one meta line holding the workload knobs
//! (`scale`, `seq`, `seed`), so `--replay` needs nothing but the file.

use complexobj::{ExecOptions, Strategy};
use cor_bench::BenchConfig;
use cor_obs::Phase;
use cor_workload::{
    generate, generate_sequence, Engine, ExplainReport, Params, ENGINE_CATALOG_VERSION,
};

/// Smoke bound on |relative error| of predicted vs measured average I/O.
/// Deliberately loose: the gate catches a broken model (sign flips,
/// order-of-magnitude drift), not calibration noise at tiny scale.
const SMOKE_REL_ERR_BOUND: f64 = 2.0;

fn params_for(cfg: &BenchConfig, smoke: bool) -> Params {
    if smoke {
        Params {
            parent_card: 400,
            num_top: 20,
            sequence_len: 40,
            size_cache: 40,
            buffer_pages: 32,
            pr_update: 0.0,
            ..Params::paper_default()
        }
    } else {
        Params {
            pr_update: 0.0, // the figures' setting: pure retrieves
            ..cfg.base_params()
        }
    }
}

fn exec_options(smoke: bool) -> ExecOptions {
    if smoke {
        // One page of sort memory forces the external sort to spill even
        // on the tiny smoke database, so the `sort` phase does real I/O.
        ExecOptions {
            sort_work_mem: cor_pagestore::PAGE_SIZE,
            ..ExecOptions::default()
        }
    } else {
        ExecOptions::default()
    }
}

fn run_all(params: &Params, opts: &ExecOptions) -> Vec<ExplainReport> {
    let generated = generate(params);
    let sequence = generate_sequence(params);
    Strategy::ALL
        .into_iter()
        .map(|strategy| {
            let engine = Engine::builder()
                .build_workload(params, &generated, strategy)
                .expect("engine builds")
                .with_options(*opts);
            engine
                .explain(strategy, &sequence, Some(params))
                .expect("explain runs")
        })
        .collect()
}

fn meta_line(params: &Params, opts: &ExecOptions, scale: f64) -> String {
    format!(
        "{{\"schema_version\":1,\"catalog_version\":{ENGINE_CATALOG_VERSION},\
         \"meta\":true,\"scale\":{scale},\"parent_card\":{},\
         \"num_top\":{},\"sequence_len\":{},\"size_cache\":{},\"buffer_pages\":{},\
         \"pr_update\":{},\"seed\":{},\"sort_work_mem\":{}}}",
        params.parent_card,
        params.num_top,
        params.sequence_len,
        params.size_cache,
        params.buffer_pages,
        params.pr_update,
        params.seed,
        opts.sort_work_mem
    )
}

fn capture(
    path: &std::path::Path,
    params: &Params,
    opts: &ExecOptions,
    scale: f64,
    reports: &[ExplainReport],
) {
    let mut out = meta_line(params, opts, scale);
    out.push('\n');
    for r in reports {
        out.push_str(&r.to_jsonl());
        out.push('\n');
    }
    cor_bench::write_report(path, &out);
}

/// Pull `"key":value` out of the meta line (numbers only).
fn meta_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn replay(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let meta = lines.next().ok_or("empty capture")?;
    if !meta.contains("\"meta\":true") {
        return Err("first line is not a meta line".into());
    }
    // Captures made by a build with a different on-disk engine-catalog
    // layout are not comparable; fail loudly instead of diffing noise.
    let captured =
        meta_num(meta, "catalog_version").ok_or("meta line lacks catalog_version")? as u32;
    if captured != ENGINE_CATALOG_VERSION {
        return Err(format!(
            "capture was made under engine-catalog layout v{captured}, this build \
             writes v{ENGINE_CATALOG_VERSION} — re-capture with --jsonl"
        ));
    }
    let scale = meta_num(meta, "scale").ok_or("meta line lacks scale")?;
    let mut params = Params::scaled(scale);
    let mut opts = ExecOptions::default();
    let need = |key: &str| meta_num(meta, key).ok_or_else(|| format!("meta line lacks {key}"));
    params.parent_card = need("parent_card")? as u64;
    params.num_top = need("num_top")? as u64;
    params.sequence_len = need("sequence_len")? as usize;
    params.size_cache = need("size_cache")? as usize;
    params.buffer_pages = need("buffer_pages")? as usize;
    params.pr_update = need("pr_update")?;
    params.seed = need("seed")? as u64;
    opts.sort_work_mem = need("sort_work_mem")? as usize;

    let reports = run_all(&params, &opts);
    let mut checked = 0usize;
    for (line, report) in lines.zip(&reports) {
        let (strat, reads, writes, phases) =
            ExplainReport::parse_replay_line(line).ok_or_else(|| format!("bad line: {line}"))?;
        if strat != report.strategy.to_string() {
            return Err(format!(
                "strategy order drifted: captured {strat}, replayed {}",
                report.strategy
            ));
        }
        if (reads, writes) != (report.total.reads, report.total.writes) {
            return Err(format!(
                "{strat}: totals drifted: captured {reads}r/{writes}w, \
                 replayed {}r/{}w",
                report.total.reads, report.total.writes
            ));
        }
        for (row, (r, w)) in report.phases.iter().zip(&phases) {
            if (row.reads, row.writes) != (*r, *w) {
                return Err(format!(
                    "{strat}/{}: phase I/O drifted: captured {r}r/{w}w, \
                     replayed {}r/{}w",
                    row.phase.name(),
                    row.reads,
                    row.writes
                ));
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("capture held no strategy lines".into());
    }
    Ok(checked)
}

fn smoke_check(reports: &[ExplainReport]) -> Vec<String> {
    let mut failures = Vec::new();
    // Union coverage: every named phase must be exercised by some
    // strategy (`other` is the catch-all and may legitimately be empty).
    for phase in Phase::ALL {
        if phase == Phase::Other {
            continue;
        }
        if !reports.iter().any(|r| r.phases[phase.index()].io() > 0) {
            failures.push(format!("phase {} never observed", phase.name()));
        }
    }
    for r in reports {
        let s = r.strategy;
        if r.phase_io_sum() != r.total.total() {
            failures.push(format!(
                "{s}: phase sum {} != total {}",
                r.phase_io_sum(),
                r.total.total()
            ));
        }
        match r.rel_error {
            None => failures.push(format!("{s}: no relative error computed")),
            Some(e) if !e.is_finite() => failures.push(format!("{s}: relative error not finite")),
            Some(e) if e.abs() > SMOKE_REL_ERR_BOUND => failures.push(format!(
                "{s}: relative error {:.1}% beyond ±{:.0}%",
                100.0 * e,
                100.0 * SMOKE_REL_ERR_BOUND
            )),
            Some(_) => {}
        }
    }
    failures
}

fn main() {
    let cfg = BenchConfig::from_args(&["--smoke"], &["--jsonl", "--replay"]);
    let smoke = cfg.has_flag("--smoke");
    let jsonl = std::path::PathBuf::from(
        cfg.value("--jsonl")
            .unwrap_or("results/explain/explain.jsonl"),
    );
    let replay_path = cfg.value("--replay").map(std::path::PathBuf::from);

    if let Some(path) = replay_path {
        match replay(&path) {
            Ok(n) => {
                println!(
                    "explain replay: OK ({n} strategies re-ran byte-identical to {})",
                    path.display()
                );
                return;
            }
            Err(e) => {
                eprintln!("explain replay FAIL: {e}");
                std::process::exit(1);
            }
        }
    }

    let params = params_for(&cfg, smoke);
    let opts = exec_options(smoke);
    println!(
        "explain — per-phase I/O vs the analytical cost model{}\n\
         |ParentRel| = {}, buffer = {} pages, NumTop = {}, {} retrieves\n",
        if smoke { " (smoke)" } else { "" },
        params.parent_card,
        params.buffer_pages,
        params.num_top,
        params.sequence_len
    );
    let reports = run_all(&params, &opts);
    for r in &reports {
        println!("{}", r.render());
    }

    println!("measured vs predicted average I/O per retrieve:");
    println!(
        "{:<10} {:>10} {:>10} {:>9}",
        "strategy", "measured", "predicted", "rel err"
    );
    for r in &reports {
        let p = r.predicted.expect("params were supplied");
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>+8.1}%",
            r.strategy.to_string(),
            r.avg_retrieve_io,
            p.total(),
            100.0 * r.rel_error.unwrap_or(f64::NAN)
        );
    }

    capture(&jsonl, &params, &opts, cfg.scale, &reports);

    if smoke {
        let failures = smoke_check(&reports);
        if failures.is_empty() {
            println!(
                "\nexplain smoke: OK ({} strategies, every phase observed, \
                 rel err within ±{:.0}%)",
                reports.len(),
                100.0 * SMOKE_REL_ERR_BOUND
            );
        } else {
            for f in &failures {
                eprintln!("explain smoke FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
