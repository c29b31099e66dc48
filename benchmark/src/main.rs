//! Benchmark harness for the cor storage engine. See `README.md`.
//!
//! ```text
//! cor-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! cor-benchmark [--seed N] [--seconds S]                        full set: 4 untraced + 4 traced runs
//! cor-benchmark --agree [--seconds S]                           two sets on one seed, a third on another
//! cor-benchmark --emit-benchmark-json                           regenerate ../BENCHMARK.json
//! ```

mod agree;
mod build;
mod metrics;
mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;
use workload::{WorkloadDef, OUT_DIR};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
/// Operation counts scale with it by one common factor: at 10 the
/// workloads run 30,000 / 1,500 / 18,000 / 12,000 measured operations.
pub const RUN_SECONDS: usize = 10;
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    trace: bool,
    agree: bool,
    emit: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        agree: false,
        emit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                let v = value("a number")?;
                a.seed = parse_u64(&v).ok_or(format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--agree" => a.agree = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// What one run found, beyond its metrics.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// One untraced run: the end-to-end metrics.
fn run_untraced(
    def: &WorkloadDef,
    seed: u64,
    seconds: usize,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let pass = workload::run_pass(def, seed, seconds, SETUPS, None)?;
    Ok(Outcome {
        values: report::end_to_end(&pass)?,
        attempted: pass.exact.attempted,
        failed: pass.exact.failed,
        correct: pass.exact.failed == 0,
    })
}

/// One traced run: the same workload untraced, traced, traced and
/// untraced again, then the layer probes. All four passes must agree on
/// every count; the first traced one gives the per-layer metrics and the
/// trace file, and the mirrored order gives `trace.overhead_ratio` both
/// pass orders.
fn run_traced(
    def: &WorkloadDef,
    seed: u64,
    seconds: usize,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut tracer = Tracer::new();
    let untraced_first = workload::run_pass(def, seed, seconds, 1, None)?;
    let traced = workload::run_pass(def, seed, seconds, 1, Some(&mut tracer))?;
    // The mirror pass's spans would only repeat the first's: not kept.
    let traced_again = workload::run_pass(def, seed, seconds, 1, Some(&mut Tracer::new()))?;
    let untraced_last = workload::run_pass(def, seed, seconds, 1, None)?;
    let mut values = Values::default();
    let wal_probe_record_bytes = probes::run(seed, &mut tracer, &mut values)?;
    let values = report::per_layer(
        def,
        [&untraced_first, &untraced_last],
        [&traced, &traced_again],
        values,
        wal_probe_record_bytes,
    )?;

    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", def.name));
    tracer.write_jsonl(std::fs::File::create(&path)?)?;
    println!(
        "{:<14} {} spans -> {}",
        def.name,
        tracer.len(),
        path.display()
    );

    // Metrics-on must not change what the engine reads, writes or logs.
    let passes = [&untraced_first, &traced, &traced_again, &untraced_last];
    let deterministic = passes.iter().all(|p| p.exact == traced.exact);
    if !deterministic {
        println!(
            "{:<14} DETERMINISM FAILURE: untraced {:?} / {:?} != traced {:?} / {:?}",
            def.name, untraced_first.exact, untraced_last.exact, traced.exact, traced_again.exact
        );
    }
    // The ledger is the harness's estimate, not the program's output: an
    // overshoot is said out loud and stays in the numbers (a negative
    // remainder), but the run's answers are still correct.
    let shares = report::LEDGER.map(|n| values.get(n).expect("ledger is filled"));
    if !report::ledger_in_range(&shares) {
        println!(
            "{:<14} LEDGER OVERSHOOT: count x probe cost is {:.3} x the wall, shares {shares:?}",
            def.name,
            shares[..3].iter().sum::<f64>()
        );
    }
    let failed: u64 = passes.iter().map(|p| p.exact.failed).sum();
    Ok(Outcome {
        values,
        attempted: passes.iter().map(|p| p.exact.attempted).sum(),
        failed,
        correct: failed == 0 && deterministic,
    })
}

/// The contract's single run: human-readable lines, then the result line.
fn single_run(args: &Args, name: &str) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let def = workload::find(name).ok_or(format!("unknown workload {name}"))?;
    std::fs::create_dir_all(OUT_DIR)?;
    let (outcome, table) = if args.trace {
        (run_traced(def, args.seed, args.seconds)?, PER_LAYER)
    } else {
        (run_untraced(def, args.seed, args.seconds)?, END_TO_END)
    };
    outcome.values.print(table, def.name);
    // Not in the result object (0 on every good run, so it cannot carry a
    // relative bound), but printed like a metric.
    println!(
        "{:<14} {:<30} {:>16} ratio  ({} failed of {} attempted)",
        def.name,
        "fail_ratio",
        metrics::fmt_value(outcome.failed as f64 / outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.values.to_json(table)
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cor-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.emit {
        print!("{}", metrics::benchmark_json(RUN_SECONDS));
        Ok(ExitCode::SUCCESS)
    } else if args.agree {
        agree::agree(&args)
    } else if let Some(name) = &args.workload {
        single_run(&args, name)
    } else {
        agree::full_set(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("cor-benchmark: {e}");
        ExitCode::FAILURE
    })
}
