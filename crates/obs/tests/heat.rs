//! Heat-map integration tests: proptest-pinned decay properties (order
//! preservation, convergence to zero) and a golden-file check over the
//! `cor_heat_*` exporter family.

use cor_obs::heat::{decay_value, DEFAULT_ALPHA_Q16};
use cor_obs::{parse_prometheus, to_prometheus, HeatClass, HeatMap, MetricsSnapshot};
use proptest::prelude::*;

/// A deterministic heat map exercising every class, decay, and the
/// top-K exporter path.
fn reference_report_snapshot() -> MetricsSnapshot {
    let m = HeatMap::with_geometry(4, 256);
    // Skewed parent traffic: ids 0..3 hot, a cold tail behind them.
    for (id, n) in [(0u64, 400u64), (1, 200), (2, 100), (3, 50)] {
        m.touch_n(HeatClass::Parent, id, n);
    }
    for id in 10..20u64 {
        m.touch(HeatClass::Parent, id);
    }
    m.touch_n(HeatClass::ClusterRoot, 7, 64);
    // One decay tick halves everything (and rounds the tail down).
    m.decay_tick(DEFAULT_ALPHA_Q16);
    let mut snap = MetricsSnapshot::default();
    m.report().push_to(&mut snap, 3, DEFAULT_ALPHA_Q16);
    snap
}

#[test]
fn heat_prometheus_output_matches_golden_file() {
    let text = to_prometheus(&reference_report_snapshot());
    let golden = include_str!("golden/heat.prom");
    assert_eq!(
        text, golden,
        "cor_heat_* rendering drifted from tests/golden/heat.prom; \
         if the change is intentional, update the golden file"
    );
}

#[test]
fn heat_golden_output_parses_and_ranks() {
    let text = to_prometheus(&reference_report_snapshot());
    let parsed = parse_prometheus(&text).expect("heat exporter output must parse");
    // Top-K parent gauges are rank-ordered hottest-first.
    let mut tops: Vec<(String, f64)> = parsed
        .iter()
        .filter(|p| {
            p.name == "cor_heat_top" && p.labels.iter().any(|(k, v)| k == "class" && v == "parent")
        })
        .map(|p| {
            let rank = p
                .labels
                .iter()
                .find(|(k, _)| k == "rank")
                .unwrap()
                .1
                .clone();
            (rank, p.value)
        })
        .collect();
    tops.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(tops.len(), 3);
    assert!(
        tops.windows(2).all(|w| w[0].1 >= w[1].1),
        "ranks ordered hottest first: {tops:?}"
    );
    assert_eq!(tops[0].1, 200.0, "hottest parent decayed 400 -> 200");
    // Per-class touch totals present for every class.
    for class in ["parent", "cluster_root"] {
        assert!(
            parsed.iter().any(|p| p.name == "cor_heat_touches_total"
                && p.labels.iter().any(|(k, v)| k == "class" && v == class)),
            "missing touches_total for {class}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Decay is monotone: if a was at least as hot as b before a tick, it
    /// still is afterwards — rankings survive any number of ticks.
    #[test]
    fn decay_preserves_order(
        a in any::<u64>(),
        b in any::<u64>(),
        alpha in 0u64..=65536,
        ticks in 1usize..20,
    ) {
        let (hot, cold) = if a >= b { (a, b) } else { (b, a) };
        let (mut h, mut c) = (hot, cold);
        for _ in 0..ticks {
            h = decay_value(h, alpha);
            c = decay_value(c, alpha);
            prop_assert!(h >= c, "tick re-ordered {hot} vs {cold} under alpha {alpha}");
        }
    }

    /// For any alpha < 2^16 a nonzero counter strictly decreases every
    /// tick (`v * alpha / 2^16 < v`, and flooring cannot round back up),
    /// so by induction on `u64` every counter converges to exactly zero.
    #[test]
    fn decay_strictly_decreases_nonzero_counters(
        v in 1u64..=u64::MAX,
        alpha in 0u64..65536,
    ) {
        prop_assert!(decay_value(v, alpha) < v);
        prop_assert_eq!(decay_value(0, alpha), 0, "zero is a fixed point");
    }

    /// And counters actually reach zero within the analytic tick bound:
    /// alpha <= 0.96875 loses at least 0.045 bits per tick, so a
    /// sub-2^30 counter is extinct well inside 1024 ticks.
    #[test]
    fn decay_reaches_zero_within_bound(
        start in 1u64..1_000_000_000,
        alpha in 0u64..=63488,
    ) {
        let mut v = start;
        let mut ticks = 0u32;
        while v > 0 {
            v = decay_value(v, alpha);
            ticks += 1;
            prop_assert!(ticks <= 1024, "no convergence from {start} under alpha {alpha}");
        }
    }

    /// Whole-map decay matches the pure per-value function and drops
    /// fully-decayed entries from the report.
    #[test]
    fn map_decay_matches_pure_function(
        counts in proptest::collection::vec(1u64..1_000_000, 1..40),
        alpha in 1u64..65536,
    ) {
        let m = HeatMap::with_geometry(2, 128);
        for (id, &n) in counts.iter().enumerate() {
            m.touch_n(HeatClass::Parent, id as u64, n);
        }
        m.decay_tick(alpha);
        let report = m.report();
        for (id, &n) in counts.iter().enumerate() {
            let expect = decay_value(n, alpha);
            let got = report
                .entries
                .iter()
                .find(|e| e.class == HeatClass::Parent && e.id == id as u64)
                .map(|e| e.count);
            if expect == 0 {
                prop_assert_eq!(got, None, "fully-decayed entries leave the report");
            } else {
                prop_assert_eq!(got, Some(expect));
            }
        }
    }
}
