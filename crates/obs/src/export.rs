//! Exporters: Prometheus text format and JSON.
//!
//! Both render a [`MetricsSnapshot`], so anything the registry collects —
//! or the engine folds in from the pool and cache layers — comes out in
//! either format with no per-layer code. A small Prometheus *parser* is
//! also exported: the test suite uses it to prove the text output is
//! well-formed (label escaping round-trips, histogram buckets are
//! cumulative).

use crate::hist::HistSnapshot;
use crate::registry::{Labels, MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

/// Escape a label value for the Prometheus text format (`\\`, `\"`, `\n`).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a `# HELP` line (`\\` and `\n` only, per the exposition format).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render the snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for fam in &snap.families {
        if !fam.help.is_empty() {
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
        }
        let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
        for s in &fam.samples {
            match &s.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", fam.name, render_labels(&s.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        fam.name,
                        render_labels(&s.labels, None),
                        fmt_f64(*v)
                    );
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (upper, count) in h.occupied_buckets() {
                        cum += count;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            fam.name,
                            render_labels(&s.labels, Some(("le", &upper.to_string())))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        fam.name,
                        render_labels(&s.labels, Some(("le", "+Inf"))),
                        h.count()
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        fam.name,
                        render_labels(&s.labels, None),
                        h.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        fam.name,
                        render_labels(&s.labels, None),
                        h.count()
                    );
                }
            }
        }
    }
    out
}

/// Escape a string for JSON output.
pub fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_labels(labels: &Labels) -> String {
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

fn json_hist(h: &HistSnapshot) -> String {
    let buckets: Vec<String> = h
        .occupied_buckets()
        .map(|(upper, count)| format!("[{upper},{count}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        fmt_f64(h.mean()),
        h.quantile(0.5),
        h.quantile(0.99),
        buckets.join(",")
    )
}

/// Render the snapshot as a JSON document (machine-readable twin of the
/// Prometheus output; histograms additionally carry mean/p50/p99).
pub fn to_json(snap: &MetricsSnapshot) -> String {
    let mut fams = Vec::with_capacity(snap.families.len());
    for fam in &snap.families {
        let samples: Vec<String> = fam
            .samples
            .iter()
            .map(|s| {
                let value = match &s.value {
                    MetricValue::Counter(v) => v.to_string(),
                    MetricValue::Gauge(v) => fmt_f64(*v),
                    MetricValue::Histogram(h) => json_hist(h),
                };
                format!(
                    "{{\"labels\":{},\"value\":{}}}",
                    json_labels(&s.labels),
                    value
                )
            })
            .collect();
        fams.push(format!(
            "{{\"name\":\"{}\",\"help\":\"{}\",\"kind\":\"{}\",\"samples\":[{}]}}",
            escape_json(&fam.name),
            escape_json(&fam.help),
            fam.kind.as_str(),
            samples.join(",")
        ));
    }
    format!("{{\"families\":[{}]}}", fams.join(","))
}

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Full sample name (e.g. `latency_ns_bucket`).
    pub name: String,
    /// Decoded label pairs.
    pub labels: Vec<(String, String)>,
    /// Numeric value (`+Inf` in an `le` label stays in the labels; the
    /// sample value itself is always finite in our output).
    pub value: f64,
}

fn parse_label_block(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest}"))?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted near {rest}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {rest}"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start_matches(',');
    }
    Ok(labels)
}

/// Parse Prometheus text-format output back into samples, validating the
/// line grammar (HELP/TYPE comments, name/label syntax, numeric values).
pub fn parse_prometheus(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut samples = Vec::new();
    let mut declared: Vec<String> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest
                .split_whitespace()
                .next()
                .ok_or_else(|| format!("line {ln}: TYPE without name"))?;
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: no value: {line}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {ln}: bad value {value}"))?;
        let (name, labels) = match head.split_once('{') {
            Some((name, rest)) => {
                let block = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {ln}: unterminated labels"))?;
                (name.to_string(), parse_label_block(block)?)
            }
            None => (head.to_string(), Vec::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {ln}: bad metric name {name}"));
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(&name);
        if !declared.iter().any(|d| d == &name || d == base) {
            return Err(format!("line {ln}: sample {name} has no TYPE declaration"));
        }
        samples.push(ParsedSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::registry::labels;

    #[test]
    fn counters_and_gauges_render_plainly() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("ops_total", "ops", labels(&[("kind", "read")]), 12);
        s.push_gauge("ratio", "hit ratio", Labels::new(), 0.25);
        let text = to_prometheus(&s);
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{kind=\"read\"} 12"));
        assert!(text.contains("ratio 0.25"));
    }

    #[test]
    fn label_escaping_roundtrips_through_parser() {
        let tricky = "a\"b\\c\nd";
        let mut s = MetricsSnapshot::new();
        s.push_counter("c", "h", labels(&[("k", tricky)]), 1);
        let parsed = parse_prometheus(&to_prometheus(&s)).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].labels[0], ("k".to_string(), tricky.to_string()));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new();
        for v in [1u64, 1, 5, 100, 10_000] {
            h.record(v);
        }
        let mut s = MetricsSnapshot::new();
        s.push_histogram("lat", "latency", Labels::new(), h.snapshot());
        let parsed = parse_prometheus(&to_prometheus(&s)).unwrap();
        let buckets: Vec<&ParsedSample> =
            parsed.iter().filter(|p| p.name == "lat_bucket").collect();
        assert!(buckets.len() >= 4, "one line per occupied bucket + +Inf");
        let mut last = 0.0;
        for b in &buckets {
            assert!(b.value >= last, "buckets must be cumulative");
            last = b.value;
        }
        assert_eq!(buckets.last().unwrap().labels[0].1, "+Inf");
        assert_eq!(buckets.last().unwrap().value, 5.0);
        let count = parsed.iter().find(|p| p.name == "lat_count").unwrap();
        assert_eq!(count.value, 5.0);
        let sum = parsed.iter().find(|p| p.name == "lat_sum").unwrap();
        assert_eq!(sum.value, 10_107.0);
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("c", "with \"quotes\"", labels(&[("k", "v\n")]), 3);
        let h = Histogram::new();
        h.record(7);
        s.push_histogram("lat", "", Labels::new(), h.snapshot());
        let json = to_json(&s);
        assert!(json.contains("\"help\":\"with \\\"quotes\\\"\""));
        assert!(json.contains("\"k\":\"v\\n\""));
        assert!(json.contains("\"p99\":7"));
        assert!(json.contains("\"buckets\":[[7,1]]"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("lonely_sample 1").is_err(), "no TYPE");
        assert!(parse_prometheus("# TYPE x counter\nx{k=\"v} 1").is_err());
        assert!(parse_prometheus("# TYPE x counter\nx notanumber").is_err());
    }
}
