//! # cor-bench
//!
//! Benchmark harness: one binary per figure/table of the paper's
//! evaluation (see DESIGN.md's experiment index) and the gate binaries
//! `scripts/check.sh` runs (explain, crashtest). Wall-time claims are
//! judged by `benchmark/` at the repo root, not here.
//!
//! Every binary accepts:
//!
//! * `--scale F` — run at fraction `F` of the paper's database size
//!   (ParentRel, SizeCache, buffer and sequence length shrink together);
//!   default 0.2.
//! * `--full` — the paper's full scale (equivalent to `--scale 1.0`).
//! * `--seq N` — override the sequence length.
//! * `--seed S` — override the master seed.
//! * `--csv FILE` — write the main table as CSV.
//!
//! A binary's own flags are named where it calls
//! [`BenchConfig::from_args`]; any other flag is a usage error (exit 2).

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
    /// The binary's own flags as given: switches, and valued flags each
    /// followed by its value.
    rest: Vec<String>,
}

impl BenchConfig {
    /// Parse `std::env::args`, exiting with usage on malformed input or
    /// on a flag that is neither common nor one of this binary's
    /// `switches` or `valued` flags.
    pub fn from_args(switches: &[&str], valued: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), switches, valued).unwrap_or_else(|e| usage(&e))
    }

    /// [`from_args`](Self::from_args) over `args`, without the exit: the
    /// error is the usage message, empty for `--help`.
    fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Self, String> {
        let mut cfg = BenchConfig {
            scale: 0.2,
            seq: None,
            seed: None,
            csv: None,
            rest: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => cfg.scale = next_parsed(&mut args, &a, "a number in (0,1]")?,
                "--full" => cfg.scale = 1.0,
                "--seq" => cfg.seq = Some(next_parsed(&mut args, &a, "a positive integer")?),
                "--seed" => cfg.seed = Some(next_parsed(&mut args, &a, "an integer")?),
                "--csv" => cfg.csv = Some(next_value(&mut args, &a)?.into()),
                "--help" | "-h" => return Err(String::new()),
                flag if switches.contains(&flag) => cfg.rest.push(a),
                flag if valued.contains(&flag) => {
                    let v = next_value(&mut args, flag)?;
                    cfg.rest.extend([a, v]);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
            return Err("--scale must be in (0, 1]".into());
        }
        Ok(cfg)
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

    /// Was one of the binary's switches passed (e.g. `--faces`)?
    pub fn has_flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    /// The value of one of the binary's valued flags (`--json FILE`), or
    /// `None` when the flag was not passed.
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.rest.iter().position(|a| a == name)?;
        Some(&self.rest[at + 1])
    }

    /// [`value`](Self::value) parsed as `T`; exits with usage, saying
    /// that `name` needs `what`, when it does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, what: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{name} needs {what}")))
        })
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

    /// An array of elements rendered elsewhere.
    pub fn array(self, key: &str, items: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<String> = items.into_iter().collect();
        self.raw(key, format_args!("[{}]", items.join(",")))
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

/// The value after flag `name`; a value never starts with `--`.
fn next_value(args: &mut impl Iterator<Item = String>, name: &str) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{name} needs a value")),
    }
}

/// [`next_value`] parsed as `T`; the error says that `name` needs `what`.
fn next_parsed<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    name: &str,
    what: &str,
) -> Result<T, String> {
    next_value(args, name)?
        .parse()
        .map_err(|_| format!("{name} needs {what}"))
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

    fn parse(args: &[&str], switches: &[&str], valued: &[&str]) -> Result<BenchConfig, String> {
        BenchConfig::parse(args.iter().map(|a| a.to_string()), switches, valued)
    }

    #[test]
    fn extra_flag_values_are_found_and_parsed() {
        let args = [
            "--smoke", "--json", "out.json", "--scale", "0.05", "--reps", "7",
        ];
        let cfg = parse(&args, &["--smoke"], &["--json", "--reps"]).unwrap();
        assert_eq!(cfg.scale, 0.05);
        assert!(cfg.has_flag("--smoke"));
        assert_eq!(cfg.value("--json"), Some("out.json"));
        assert_eq!(cfg.value("--baseline"), None);
        assert_eq!(cfg.parsed::<usize>("--reps", "a positive integer"), Some(7));
    }

    #[test]
    fn a_mistyped_flag_is_rejected_not_ignored() {
        let err = parse(&["--scael", "0.05"], &[], &[]).unwrap_err();
        assert_eq!(err, "unknown flag --scael");
        // One binary's flag is unknown to another.
        assert!(parse(&["--faces"], &[], &[]).is_err());
        assert!(parse(&["--faces"], &["--faces"], &[]).is_ok());
        assert_eq!(
            parse(&["--json", "--smoke"], &["--smoke"], &["--json"]).unwrap_err(),
            "--json needs a value"
        );
        assert!(parse(&["--scale", "2"], &[], &[]).is_err());
        assert_eq!(parse(&["--help"], &[], &[]).unwrap_err(), "");
    }

    #[test]
    fn json_objects_keep_call_order_and_number_forms() {
        let json = JsonObj::default()
            .raw("ts", 7)
            .raw("scale", 0.2)
            .str("name", "lru")
            .array("legs", [JsonObj::default().raw("ok", true).finish()])
            .raw("cache", "null")
            .finish();
        let expected = r#"{"ts":7,"scale":0.2,"name":"lru","legs":[{"ok":true}],"cache":null}"#;
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
