//! Multi-run modes. Every workload runs in its own process (this binary,
//! re-invoked), so one workload's allocator state, page cache footprint
//! or peak RSS never leaks into another's numbers.

use crate::metrics::{fmt_value, MetricDef, END_TO_END, EXACT, PER_LAYER};
use crate::workload::{OUT_DIR, WORKLOADS};
use crate::Args;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

type Error = Box<dyn std::error::Error>;

/// Seed of the third set of `--agree`: one no number was ever tuned on.
const OTHER_SEED: u64 = 0xBADC0DE;

/// A child's result line, parsed.
pub struct RunResult {
    pub correct: bool,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// The text after `"key": ` up to the next `,` or `}`, unquoted.
fn field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &s[s.find(&pat)? + pat.len()..];
    Some(rest[..rest.find([',', '}'])?].trim_matches('"'))
}

/// Parse the result line this harness prints (not JSON in general).
pub fn parse_result_line(line: &str) -> Option<RunResult> {
    let correct = field(line, "correct")?.parse().ok()?;
    let failed = field(line, "failed")?.parse().ok()?;
    let open = "\"metrics\": {";
    let mut rest = &line[line.find(open)? + open.len()..];
    let mut metrics = Vec::new();
    while let Some(name) = rest
        .strip_prefix('"')
        .and_then(|r| r.split_once('"'))
        .map(|p| p.0)
    {
        let value = field(rest, "value")?.parse().ok()?;
        let unit = field(rest, "unit")?.to_string();
        metrics.push((name.to_string(), value, unit));
        rest = rest[rest.find('}')? + 1..].trim_start_matches([',', ' ']);
    }
    Some(RunResult {
        correct,
        failed,
        metrics,
    })
}

/// Run one workload in a child process, pass its report through, and
/// parse its result line.
fn run_child(workload: &str, seed: u64, seconds: usize, trace: bool) -> Result<RunResult, Error> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8(output.stdout)?;
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{workload}: no result line"))?;
    println!("{report}");
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status).into());
    }
    parse_result_line(line)
        .ok_or_else(|| format!("{workload}: unreadable result line: {line}").into())
}

/// One full set: per workload an untraced and a traced run.
struct Set {
    /// Indexed like [`WORKLOADS`].
    untraced: Vec<RunResult>,
    traced: Vec<RunResult>,
}

impl Set {
    fn run(seed: u64, seconds: usize) -> Result<Set, Error> {
        println!("== set: seed {seed:#x}, {seconds} s per run ==");
        let mut set = Set {
            untraced: Vec::new(),
            traced: Vec::new(),
        };
        for w in &WORKLOADS {
            set.untraced.push(run_child(w.name, seed, seconds, false)?);
        }
        for w in &WORKLOADS {
            set.traced.push(run_child(w.name, seed, seconds, true)?);
        }
        Ok(set)
    }

    fn clean(&self) -> bool {
        self.untraced
            .iter()
            .chain(&self.traced)
            .all(|r| r.correct && r.failed == 0)
    }

    /// `layers.json`: `{workload: {metric: {value, unit}}}` from the traced runs.
    fn write_layers(&self) -> Result<(), Error> {
        let per_workload: Vec<String> = WORKLOADS
            .iter()
            .zip(&self.traced)
            .map(|(w, r)| {
                let fields: Vec<String> = r
                    .metrics
                    .iter()
                    .map(|(n, v, u)| {
                        format!(
                            "    \"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                            fmt_value(*v)
                        )
                    })
                    .collect();
                format!("  \"{}\": {{\n{}\n  }}", w.name, fields.join(",\n"))
            })
            .collect();
        let path = Path::new(OUT_DIR).join("layers.json");
        std::fs::write(&path, format!("{{\n{}\n}}\n", per_workload.join(",\n")))?;
        println!("per-layer metrics of all workloads -> {}", path.display());
        Ok(())
    }
}

pub fn full_set(args: &Args) -> Result<ExitCode, Error> {
    let set = Set::run(args.seed, args.seconds)?;
    std::fs::create_dir_all(OUT_DIR)?;
    set.write_layers()?;
    if !set.clean() {
        println!("FAILED: at least one run was incorrect or had failed operations");
        return Ok(ExitCode::FAILURE);
    }
    println!("all runs correct, fail_ratio 0 on every workload");
    Ok(ExitCode::SUCCESS)
}

/// Per-layer metrics that are counts (or probes of counts): two runs on
/// one seed must report them bit-for-bit equal, like [`EXACT`].
const EXACT_LAYER: &[&str] = &[
    "disk.reads_per_query",
    "disk.writes_per_query",
    "pool.hits_per_query",
    "pool.misses_per_query",
    "pool.hit_ratio",
    "pool.evictions_per_query",
    "pool.writebacks_per_query",
    "btree.get_pages_per_lookup",
    "sort.spill_runs",
    "wal.records_per_query",
    "wal.bytes_per_query",
    "wal.fsyncs_per_query",
    "wal.images_per_query",
    "cache.probe_hit_ratio",
    "cache.invalidations_per_update",
    "strategy.values_per_query",
];

/// Compare two same-seed runs of one workload metric by metric. Returns
/// how many metrics disagree.
fn compare(
    workload: &str,
    table: &[MetricDef],
    exact: &[&str],
    a: &RunResult,
    b: &RunResult,
) -> usize {
    let mut bad = 0;
    for def in table {
        let (Some(x), Some(y)) = (a.get(def.name), b.get(def.name)) else {
            println!("{workload:<14} {:<30} MISSING", def.name);
            bad += 1;
            continue;
        };
        let is_exact = exact.contains(&def.name);
        // Same code on both sides, so neither is the parent: the pair
        // agrees when the larger is within the bound of the smaller.
        let ratio = if x == y { 1.0 } else { x.max(y) / x.min(y) };
        let verdict = if is_exact {
            if x.to_bits() == y.to_bits() {
                "exact"
            } else {
                "DIFFERS"
            }
        } else if def.bound == 0.0 {
            "-"
        } else if ratio - 1.0 <= def.bound {
            "ok"
        } else {
            "OUTSIDE"
        };
        bad += usize::from(matches!(verdict, "DIFFERS" | "OUTSIDE"));
        let bound = if is_exact {
            "exact".to_string()
        } else if def.bound == 0.0 {
            "none".to_string()
        } else {
            format!("{:.0}%", def.bound * 100.0)
        };
        println!(
            "{workload:<14} {:<30} {:>14} {:>14} {:<6} ratio {ratio:.4}  bound {bound:<6} {verdict}",
            def.name,
            fmt_value(x),
            fmt_value(y),
            def.unit
        );
    }
    bad
}

pub fn agree(args: &Args) -> Result<ExitCode, Error> {
    let a = Set::run(args.seed, args.seconds)?;
    let b = Set::run(args.seed, args.seconds)?;
    let c = Set::run(OTHER_SEED, args.seconds)?;
    println!("== agreement of the two sets on seed {:#x} ==", args.seed);
    let mut bad = 0;
    for (i, w) in WORKLOADS.iter().enumerate() {
        bad += compare(w.name, END_TO_END, EXACT, &a.untraced[i], &b.untraced[i]);
        bad += compare(w.name, PER_LAYER, EXACT_LAYER, &a.traced[i], &b.traced[i]);
    }
    let clean = a.clean() && b.clean() && c.clean();
    println!(
        "{bad} metric(s) outside their bound or not exact; all three sets correct with no failed operation: {clean}"
    );
    Ok(if bad == 0 && clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
                    {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}";
        let r = parse_result_line(line).unwrap();
        assert!(r.correct);
        assert_eq!(r.failed, 0);
        assert_eq!(
            r.metrics,
            vec![
                ("latency_ms".to_string(), 1.2034, "ms".to_string()),
                ("setup_s".to_string(), 0.8127, "s".to_string())
            ]
        );
        assert!(parse_result_line("{\"correct\": maybe}").is_none());
    }

    #[test]
    fn compare_flags_inexact_counts_and_out_of_bound_timings() {
        let run = |qps: f64, io: f64| RunResult {
            correct: true,
            failed: 0,
            metrics: vec![
                ("qps".to_string(), qps, "ops/s".to_string()),
                ("io_per_query".to_string(), io, "pages".to_string()),
            ],
        };
        let table: Vec<_> = END_TO_END
            .iter()
            .filter(|m| ["qps", "io_per_query"].contains(&m.name))
            .copied()
            .collect();
        let qps_bound = table[0].bound;
        let cmp =
            |qps: f64, io: f64| compare("w", &table, EXACT, &run(100.0, 447.0), &run(qps, io));
        assert_eq!(cmp(100.0 * (1.0 + qps_bound / 2.0), 447.0), 0);
        assert_eq!(cmp(100.0 * (1.0 + qps_bound * 2.0), 447.0), 1);
        assert_eq!(cmp(100.0, 447.001), 1);
    }
}
