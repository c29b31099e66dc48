//! # cor-bench
//!
//! Benchmark harness: one binary per figure/table of the paper's
//! evaluation (see DESIGN.md's experiment index), the gate binaries
//! `scripts/check.sh` runs (explain, crashtest) and the corstat
//! observability report. Wall-time
//! claims are judged by `benchmark/` at the repo root, not here.
//!
//! Every binary accepts:
//!
//! * `--scale F` — run at fraction `F` of the paper's database size
//!   (ParentRel, SizeCache, buffer and sequence length shrink together);
//!   default 0.2.
//! * `--full` — the paper's full scale (equivalent to `--scale 1.0`).
//! * `--seq N` — override the sequence length.
//! * `--seed S` — override the master seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod figures;

use cor_workload::Params;
pub use figures::{Fig5, Fig7};

/// Common command-line configuration for figure binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Scale factor applied to the paper's database size.
    pub scale: f64,
    /// Sequence-length override.
    pub seq: Option<usize>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Write the main table as CSV to this path.
    pub csv: Option<std::path::PathBuf>,
    /// Extra flags not consumed by the common parser.
    pub rest: Vec<String>,
}

impl BenchConfig {
    /// Parse `std::env::args`, exiting with usage on malformed input.
    pub fn from_args() -> Self {
        let mut cfg = BenchConfig {
            scale: 0.2,
            seq: None,
            seed: None,
            csv: None,
            rest: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    cfg.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a number in (0,1]"))
                }
                "--full" => cfg.scale = 1.0,
                "--seq" => {
                    cfg.seq = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--seq needs a positive integer")),
                    )
                }
                "--seed" => {
                    cfg.seed = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--seed needs an integer")),
                    )
                }
                "--csv" => {
                    cfg.csv = Some(
                        args.next()
                            .map(Into::into)
                            .unwrap_or_else(|| usage("--csv needs a path")),
                    )
                }
                "--help" | "-h" => usage(""),
                other => cfg.rest.push(other.to_string()),
            }
        }
        if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
            usage("--scale must be in (0, 1]");
        }
        cfg
    }

    /// Base parameters at the configured scale.
    pub fn base_params(&self) -> Params {
        let mut p = Params::scaled(self.scale);
        if let Some(n) = self.seq {
            p.sequence_len = n;
        }
        if let Some(s) = self.seed {
            p.seed = s;
        }
        p
    }

    /// Was an extra flag passed (e.g. `--faces`)?
    pub fn has_flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    /// The value of extra flag `name` (`--json FILE`), or `None` when the
    /// flag was not passed. Exits with usage when the value is missing.
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.rest.iter().position(|a| a == name)?;
        match self.rest.get(at + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => usage(&format!("{name} needs a value")),
        }
    }

    /// [`value`](Self::value) parsed as `T`; exits with usage, saying
    /// that `name` needs `what`, when it does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, what: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{name} needs {what}")))
        })
    }

    /// Exit with usage unless every extra argument is one of `switches`,
    /// one of the `valued` flags, or a valued flag's value.
    pub fn expect_flags(&self, switches: &[&str], valued: &[&str]) {
        let mut args = self.rest.iter();
        while let Some(a) = args.next() {
            if valued.contains(&a.as_str()) {
                args.next();
            } else if !switches.contains(&a.as_str()) {
                usage(&format!("unknown flag {a}"));
            }
        }
    }

    /// Write the figure's main table as CSV if `--csv` was given.
    pub fn maybe_write_csv(&self, headers: &[&str], rows: &[Vec<String>]) {
        if let Some(path) = &self.csv {
            match cor_workload::write_csv(path, headers, rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

/// A JSON object written field by field, in call order: the one writer
/// behind every report the bench binaries emit. Keys and values here are
/// plain ASCII names and numbers, so nothing is escaped.
#[derive(Debug, Default)]
pub struct JsonObj(String);

impl JsonObj {
    /// The stamp that keeps a report interpretable across format changes:
    /// its own `schema_version`, then the engine-catalog and
    /// metrics-schema versions of the build that wrote it.
    pub fn stamp(self, schema_version: u32) -> Self {
        self.raw("schema_version", schema_version)
            .raw("catalog_version", cor_workload::ENGINE_CATALOG_VERSION)
            .raw(
                "metrics_schema_version",
                cor_workload::METRICS_SCHEMA_VERSION,
            )
    }

    /// `value` as it displays: an integer, a bool, a float in its
    /// shortest form, or JSON rendered elsewhere (`null`, an element's
    /// [`finish`](Self::finish)).
    pub fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        self.0.push_str(&format!("{sep}\"{key}\":{value}"));
        self
    }

    /// `value` as a quoted string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// `value` with exactly `decimals` digits after the point.
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Self {
        self.raw(key, format_args!("{value:.decimals$}"))
    }

    /// A nested object.
    pub fn obj(self, key: &str, value: JsonObj) -> Self {
        self.raw(key, value.finish())
    }

    /// An array of elements rendered elsewhere.
    pub fn array(self, key: &str, items: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<String> = items.into_iter().collect();
        self.raw(key, format_args!("[{}]", items.join(",")))
    }

    /// The whitespace-separated `fields` of `p`, in the order given, as a
    /// nested `"params"` object (`policy` is the pool's default policy,
    /// which every bench that records it runs under).
    pub fn params(self, p: &Params, fields: &str) -> Self {
        let field = |o: JsonObj, f| match f {
            "parent_card" => o.raw(f, p.parent_card),
            "size_unit" => o.raw(f, p.size_unit),
            "use_factor" => o.raw(f, p.use_factor),
            "overlap_factor" => o.raw(f, p.overlap_factor),
            "num_top" => o.raw(f, p.num_top),
            "size_cache" => o.raw(f, p.size_cache),
            "buffer_pages" => o.raw(f, p.buffer_pages),
            "sequence_len" => o.raw(f, p.sequence_len),
            "shards" => o.raw(f, p.shards),
            "pr_update" => o.raw(f, p.pr_update),
            "seed" => o.raw(f, p.seed),
            "policy" => o.str(f, cor_pagestore::ReplacementPolicy::default().name()),
            other => panic!("no bench report records Params::{other}"),
        };
        let params = fields.split_whitespace().fold(JsonObj::default(), field);
        self.obj("params", params)
    }

    /// The finished object, braces included.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Write a report file, creating its directory; says so on stderr, and
/// exits 1 when the file cannot be written.
pub fn write_report(path: &std::path::Path, contents: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bench> [--scale F] [--full] [--seq N] [--seed S] [--csv FILE] [bench flags]\n\
         reproduces Jhingran & Stonebraker (ICDE 1990); bench flags are in each binary's \
         module doc, see DESIGN.md"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// NumTop sweep values used by several figures, scaled to the database
/// size, clipped and deduplicated.
pub fn num_top_sweep(parent_card: u64) -> Vec<u64> {
    let raw = [
        1u64, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
    ];
    let mut out: Vec<u64> = raw
        .iter()
        .map(|&n| ((n as f64 * parent_card as f64 / 10_000.0).round() as u64).clamp(1, parent_card))
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_flag_values_are_found_and_parsed() {
        let cfg = BenchConfig {
            scale: 0.2,
            seq: None,
            seed: None,
            csv: None,
            rest: ["--smoke", "--json", "out.json", "--reps", "7"]
                .map(String::from)
                .to_vec(),
        };
        assert!(cfg.has_flag("--smoke"));
        assert_eq!(cfg.value("--json"), Some("out.json"));
        assert_eq!(cfg.value("--baseline"), None);
        assert_eq!(cfg.parsed::<usize>("--reps", "a positive integer"), Some(7));
        cfg.expect_flags(&["--smoke"], &["--json", "--reps"]);
    }

    #[test]
    fn json_objects_keep_call_order_and_number_forms() {
        let p = Params::paper_default();
        let json = JsonObj::default()
            .raw("ts", 7)
            .stamp(4)
            .raw("scale", 0.2)
            .params(&p, "seed policy")
            .obj("gate", JsonObj::default().fixed("ratio", 0.5, 4))
            .str("name", "lru")
            .array("legs", [JsonObj::default().raw("ok", true).finish()])
            .raw("cache", "null")
            .finish();
        let (catalog, metrics) = (
            cor_workload::ENGINE_CATALOG_VERSION,
            cor_workload::METRICS_SCHEMA_VERSION,
        );
        let expected = format!(
            r#"{{"ts":7,"schema_version":4,"catalog_version":{catalog},"metrics_schema_version":{metrics},"scale":0.2,"params":{{"seed":{},"policy":"lru"}},"gate":{{"ratio":0.5000}},"name":"lru","legs":[{{"ok":true}}],"cache":null}}"#,
            p.seed
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn num_top_sweep_scales_and_dedups() {
        let s = num_top_sweep(10_000);
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&10_000));
        let s = num_top_sweep(2_000);
        assert_eq!(s.last(), Some(&2_000));
        assert!(
            s.windows(2).all(|w| w[0] < w[1]),
            "sorted and unique: {s:?}"
        );
        let s = num_top_sweep(10);
        assert!(!s.is_empty());
        assert!(s.iter().all(|&n| (1..=10).contains(&n)));
    }
}
