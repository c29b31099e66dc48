//! End-to-end checks for the observability tentpole: enabling the
//! heat-map, flight-recorder, wait-profiling, and trace-tree layers
//! must leave the paper's I/O accounting byte-identical, a Zipf-skewed
//! driver must surface its generator hot set in the heat report's
//! top-K, and the slow-query hook must capture an explain breakdown
//! (and a linked causal trace) when armed.

use std::sync::Mutex;
use std::time::Duration;

use complexobj::{Query, RetAttr, RetrieveQuery, Strategy};
use cor_obs::{flight, heat, wait, Phase};
use cor_workload::{generate, generate_sequence, generate_zipf_sequence, Engine, Params};

// The heat map and flight recorder are process-global; serialize every
// test that toggles them so parallel test threads don't interleave.
static GLOBALS: Mutex<()> = Mutex::new(());

fn small(num_top: u64) -> Params {
    Params {
        parent_card: 300,
        num_top,
        sequence_len: 200,
        pr_update: 0.1,
        size_cache: 20,
        buffer_pages: 16,
        ..Params::paper_default()
    }
}

#[test]
fn enabling_observability_leaves_io_accounting_byte_identical() {
    let _g = GLOBALS.lock().unwrap();
    let p = small(5);
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    let build = || {
        Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap()
    };

    heat::enable(false);
    flight::enable(false);
    let engine = build();
    let base = engine.run_sequence(Strategy::Dfs, &sequence).unwrap();
    let base_snap = engine.pool().stats().snapshot();

    heat::enable(true);
    flight::enable(true);
    heat::global().reset();
    let engine2 = build();
    let hot = engine2.run_sequence(Strategy::Dfs, &sequence).unwrap();
    let hot_snap = engine2.pool().stats().snapshot();
    let touches = heat::global().report().touches;
    heat::enable(false);
    flight::enable(false);

    // Instrumentation on must not move a single I/O or result counter.
    assert_eq!(base.total_io, hot.total_io);
    assert_eq!(base.par_io, hot.par_io);
    assert_eq!(base.child_io, hot.child_io);
    assert_eq!(base.update_io, hot.update_io);
    assert_eq!(base.values_returned, hot.values_returned);
    assert_eq!(base_snap, hot_snap);
    // ... while the instrumented run did record heat.
    assert!(touches > 0, "enabled run recorded no heat touches");
}

#[test]
fn zipf_driver_heat_topk_matches_generator_hot_set() {
    let _g = GLOBALS.lock().unwrap();
    // num_top = 1: each retrieve touches exactly parent `lo`, so the
    // heat map's Parent class mirrors the generator's rank distribution.
    let p = Params {
        sequence_len: 600,
        pr_update: 0.0,
        ..small(1)
    };
    let generated = generate(&p);
    let engine = Engine::builder()
        .build_workload(&p, &generated, Strategy::Dfs)
        .unwrap();

    heat::enable(true);
    heat::global().reset();
    let skewed = generate_zipf_sequence(&p, 1.2);
    engine.run_sequence(Strategy::Dfs, &skewed).unwrap();
    let zipf_report = heat::global().report();

    heat::global().reset();
    let uniform = generate_sequence(&p);
    engine.run_sequence(Strategy::Dfs, &uniform).unwrap();
    let uniform_report = heat::global().report();
    heat::enable(false);

    let top = zipf_report.top_k(heat::HeatClass::Parent, 5);
    assert_eq!(top.len(), 5);
    // The Zipf generator's hot set is {0, 1, 2, ..} by construction.
    for e in &top {
        assert!(e.id < 10, "hot id {} outside the generator hot set", e.id);
    }
    assert!(top.iter().any(|e| e.id == 0), "rank-0 parent missing");

    let zipf_share = zipf_report.top_share(heat::HeatClass::Parent, 5);
    let uniform_share = uniform_report.top_share(heat::HeatClass::Parent, 5);
    assert!(zipf_share > 0.5, "zipf top-5 share {zipf_share}");
    assert!(uniform_share < 0.2, "uniform top-5 share {uniform_share}");
    assert!(zipf_share > 3.0 * uniform_share);
}

#[test]
fn slow_query_hook_captures_an_explain_report() {
    let _g = GLOBALS.lock().unwrap();
    flight::enable(true);
    let p = small(5);
    let generated = generate(&p);
    let engine = Engine::builder()
        .build_workload(&p, &generated, Strategy::Bfs)
        .unwrap()
        .with_slow_query_threshold(Duration::ZERO);

    let query = RetrieveQuery {
        lo: 0,
        hi: p.num_top - 1,
        attr: RetAttr::ALL[0],
    };
    let out = engine.retrieve(Strategy::Bfs, &query).unwrap();
    let slow = engine.slow_queries();
    let events = flight::snapshot();
    flight::enable(false);

    assert_eq!(slow.len(), 1, "zero threshold must capture the retrieve");
    let entry = &slow[0];
    assert_eq!(entry.query, query);
    assert_eq!(entry.strategy, Strategy::Bfs);
    assert!(!entry.report.phases.is_empty(), "explain breakdown missing");
    assert_eq!(entry.report.retrieves, 1);
    assert!(
        events
            .iter()
            .any(|e| e.kind == flight::FlightKind::SlowQuery),
        "no SlowQuery flight event journaled"
    );
    assert!(!out.values.is_empty());
}

/// Wait profiling and causal tracing ride the same "free when disabled,
/// read-only when enabled" contract as the heat map: turning both on
/// (and tracing every retrieve) must not move a single I/O counter.
#[test]
fn wait_profiling_and_tracing_leave_io_accounting_byte_identical() {
    let _g = GLOBALS.lock().unwrap();
    let p = Params {
        pr_update: 0.0,
        ..small(5)
    };
    let generated = generate(&p);
    let sequence = generate_sequence(&p);

    let run = |instrumented: bool| {
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Bfs)
            .unwrap();
        let mut values = 0usize;
        let mut trees = 0usize;
        for q in &sequence {
            let Query::Retrieve(r) = q else { continue };
            values += if instrumented {
                let (out, tree) = engine.trace_query(Strategy::Bfs, r).unwrap();
                let tree = tree.expect("no trace was active, so this one collects");
                tree.validate().unwrap();
                trees += 1;
                out.values.len()
            } else {
                engine.retrieve(Strategy::Bfs, r).unwrap().values.len()
            };
        }
        (engine.pool().stats().snapshot(), values, trees)
    };

    wait::enable(false);
    let (base_snap, base_values, _) = run(false);
    wait::enable(true);
    wait::global().reset();
    let (hot_snap, hot_values, trees) = run(true);
    let waits = wait::report().total_waits();
    wait::enable(false);

    assert_eq!(base_snap, hot_snap, "instrumentation moved an I/O counter");
    assert_eq!(base_values, hot_values);
    assert!(trees > 0, "no trace trees collected");
    assert!(
        waits > 0,
        "enabled run recorded no waits (shard locks alone should)"
    );
}

/// `cor_wait_*` families appear in both exporters exactly when wait
/// profiling is on — the disabled report stays byte-compatible with
/// pre-wait-profiling consumers.
#[test]
fn wait_families_exported_only_when_enabled() {
    let _g = GLOBALS.lock().unwrap();
    let p = small(5);
    let generated = generate(&p);
    let query = RetrieveQuery {
        lo: 0,
        hi: p.num_top - 1,
        attr: RetAttr::ALL[0],
    };

    let report_with = |on: bool| {
        wait::enable(on);
        if on {
            wait::global().reset();
        }
        let engine = Engine::builder()
            .metrics(true)
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        engine.retrieve(Strategy::Dfs, &query).unwrap();
        let report = engine.metrics().expect("metrics are on");
        wait::enable(false);
        report
    };

    let off = report_with(false);
    for family in ["cor_wait_count_total", "cor_wait_ns_total", "cor_wait_ns"] {
        assert!(
            off.snapshot.family(family).is_none(),
            "{family} exported while wait profiling is off"
        );
        assert!(!off.to_prometheus().contains(family));
        assert!(!off.to_json().contains(family));
    }

    let on = report_with(true);
    on.validate().expect("report with wait families validates");
    for family in ["cor_wait_count_total", "cor_wait_ns_total", "cor_wait_ns"] {
        assert!(
            on.snapshot.family(family).is_some(),
            "{family} missing while wait profiling is on"
        );
        assert!(
            on.to_prometheus().contains(family),
            "{family} not in Prometheus text"
        );
        assert!(on.to_json().contains(family), "{family} not in JSON");
    }
    let shard_lock = on
        .snapshot
        .family("cor_wait_count_total")
        .and_then(|f| {
            f.samples.iter().find(|s| {
                s.labels
                    .iter()
                    .any(|(k, v)| k == "class" && v == "shard_lock")
            })
        })
        .map(|s| match s.value {
            cor_obs::MetricValue::Counter(c) => c,
            _ => 0,
        })
        .unwrap_or(0);
    assert!(shard_lock > 0, "retrieve took no timed shard locks");
}

/// Engine-level exactness, for every strategy over a sampled sequence:
/// each traced query's tree is well-formed, dropped no node, and its
/// per-phase sums equal the pool's `PhaseProfile` deltas. Both are fed
/// by the same `IoStats` calls, so any drift is a collector bug.
#[test]
fn traced_query_matches_profile_ledger() {
    let _g = GLOBALS.lock().unwrap();
    let p = Params {
        pr_update: 0.0,
        ..small(5)
    };
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    for strategy in Strategy::ALL {
        let engine = Engine::builder()
            .build_workload(&p, &generated, strategy)
            .unwrap();
        let profile = engine.pool().stats().enable_profile();
        let mut traced = 0;
        for q in sequence.iter().step_by(4) {
            let Query::Retrieve(r) = q else { continue };
            let before = profile.snapshot();
            let (out, tree) = engine.trace_query(strategy, r).unwrap();
            let delta = profile.snapshot().since(&before);

            let tree = tree.expect("trace collects");
            tree.validate().unwrap();
            assert_eq!(tree.dropped, 0, "{strategy}: trace dropped nodes");
            assert!(!out.values.is_empty());
            assert!(tree.nodes.len() > 1, "{strategy}: trivial tree");
            let (reads, writes) = (tree.reads_by_phase(), tree.writes_by_phase());
            for phase in Phase::ALL {
                let name = phase.name();
                assert_eq!(
                    reads[phase.index()],
                    delta.reads_of(phase),
                    "{strategy} {name}"
                );
                assert_eq!(
                    writes[phase.index()],
                    delta.writes_of(phase),
                    "{strategy} {name}"
                );
            }
            traced += 1;
        }
        assert!(traced > 0, "{strategy}: nothing sampled");
    }
}

/// An armed slow-query hook captures a causal trace alongside the
/// explain breakdown and journals a `TraceLink` flight event pointing
/// at it — the path from "that query was slow" to its tree.
#[test]
fn slow_capture_carries_a_linked_trace() {
    let _g = GLOBALS.lock().unwrap();
    flight::enable(true);
    let p = small(5);
    let generated = generate(&p);
    let engine = Engine::builder()
        .build_workload(&p, &generated, Strategy::Bfs)
        .unwrap()
        .with_slow_query_threshold(Duration::ZERO);
    let query = RetrieveQuery {
        lo: 0,
        hi: p.num_top - 1,
        attr: RetAttr::ALL[0],
    };
    engine.retrieve(Strategy::Bfs, &query).unwrap();
    let events = flight::snapshot();
    flight::enable(false);

    let slow = engine.slow_queries();
    assert_eq!(slow.len(), 1);
    let linked = slow[0]
        .trace
        .as_ref()
        .expect("slow capture carries a trace");
    linked.validate().unwrap();
    assert!(linked.total_ns > 0);
    assert!(
        events
            .iter()
            .any(|e| e.kind == flight::FlightKind::TraceLink && e.a == linked.id),
        "no TraceLink flight event for trace {}",
        linked.id
    );
}

#[test]
fn unarmed_engine_records_no_slow_queries() {
    let _g = GLOBALS.lock().unwrap();
    let p = small(5);
    let generated = generate(&p);
    let engine = Engine::builder()
        .build_workload(&p, &generated, Strategy::Bfs)
        .unwrap();
    let sequence = generate_sequence(&p);
    for q in &sequence {
        if let Query::Retrieve(r) = q {
            engine.retrieve(Strategy::Bfs, r).unwrap();
        }
    }
    assert!(engine.slow_queries().is_empty());
}
