//! Exporter and histogram integration tests: a golden-file check that the
//! JSON output is byte-stable, plus a property over histogram quantiles.

use cor_obs::{labels, to_json, HistSnapshot, Histogram, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;

/// A deterministic snapshot exercising every metric kind, label escaping
/// and histogram rendering.
fn reference_snapshot() -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    for (shard, hits) in [(0u64, 90u64), (1, 41)] {
        reg.counter(
            "cor_pool_hits_total",
            "buffer pool page-table hits",
            labels(&[("shard", &shard.to_string())]),
        )
        .add(hits);
    }
    reg.gauge(
        "cor_pool_hit_ratio",
        "pool hit fraction",
        labels(&[("shard", "0")]),
    )
    .set(1);
    let lat = reg.histogram(
        "cor_query_latency_ns",
        "per-query wall time",
        labels(&[("strategy", "DFS"), ("op", "retrieve")]),
    );
    for v in [3u64, 9, 9, 150, 4096, 70_000] {
        lat.record(v);
    }
    let mut snap = reg.snapshot();
    // A hand-pushed family with a label value needing every escape.
    snap.push_counter(
        "cor_escapes_total",
        "label escaping fixture",
        labels(&[("path", "a\\b\"c\nd")]),
        1,
    );
    snap
}

#[test]
fn json_output_matches_golden_file() {
    let json = to_json(&reference_snapshot());
    let golden = include_str!("golden/metrics.json");
    assert_eq!(
        json,
        golden.trim_end_matches('\n'),
        "JSON rendering drifted from tests/golden/metrics.json; \
         if the change is intentional, update the golden file"
    );
}

fn hist_of(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Quantiles never undershoot the true order statistic and respect the
    /// bucket-width error bound.
    #[test]
    fn quantiles_bracket_true_order_statistics(
        values in proptest::collection::vec(0u64..1_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let snap = hist_of(&values);
        let mut values = values;
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let est = snap.quantile(q);
        prop_assert!(est >= exact, "estimate {} under true {}", est, exact);
        prop_assert!(est <= snap.max(), "estimate above observed max");
    }
}
