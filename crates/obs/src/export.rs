//! The JSON exporter.
//!
//! [`to_json`] renders a [`MetricsSnapshot`], so anything the registry
//! collects — or the engine folds in from the pool and cache layers —
//! comes out with no per-layer code. `crates/obs/tests/golden/metrics.json`
//! pins the rendering byte for byte.

use crate::hist::HistSnapshot;
use crate::registry::{Labels, MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a string for JSON output.
fn escape_json(v: &str) -> String {
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

/// Render the snapshot as a JSON document; histograms carry their
/// occupied buckets beside count, sum, min, max, mean, p50 and p99.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::registry::labels;

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
}
