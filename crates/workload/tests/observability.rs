//! End-to-end checks for the observability layers: enabling the
//! flight recorder and the phase ledger must leave the paper's I/O
//! accounting byte-identical, and each traced query's ledger matches the
//! pool's I/O counts.

use std::sync::Mutex;

use complexobj::{Query, RetrieveQuery, Strategy, StrategyOutput};
use cor_obs::{flight, tracetree, PhaseLedger};
use cor_workload::{generate, generate_sequence, Engine, Params};

// The flight recorder is process-global; serialize every test that
// toggles it so parallel test threads don't interleave.
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

/// One retrieve under its own trace: the answer and the finished ledger.
fn traced_retrieve(
    engine: &Engine,
    strategy: Strategy,
    query: &RetrieveQuery,
) -> (StrategyOutput, PhaseLedger) {
    let trace = tracetree::start();
    let out = engine.retrieve(strategy, query).unwrap();
    let ledger = trace
        .finish()
        .expect("no trace was active, so this one collects");
    (out, ledger)
}

/// Flight recording and tracing are free when disabled and read-only
/// when enabled: turning both on must not move a single I/O or result
/// counter, over a DFS sequence with updates and over BFS retrieves that
/// are each traced.
#[test]
fn observability_switches_leave_io_accounting_byte_identical() {
    let _g = GLOBALS.lock().unwrap();
    let p = small(5);
    let generated = generate(&p);
    let sequence = generate_sequence(&p);

    let run = |instrumented: bool| {
        let dfs = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let result = dfs.run_sequence(Strategy::Dfs, &sequence).unwrap();

        let bfs = Engine::builder()
            .build_workload(&p, &generated, Strategy::Bfs)
            .unwrap();
        let mut values = 0usize;
        let mut traces = 0usize;
        for q in &sequence {
            let Query::Retrieve(r) = q else { continue };
            values += if instrumented {
                traces += 1;
                traced_retrieve(&bfs, Strategy::Bfs, r).0.values.len()
            } else {
                bfs.retrieve(Strategy::Bfs, r).unwrap().values.len()
            };
        }
        let snaps = (dfs.pool().stats().snapshot(), bfs.pool().stats().snapshot());
        (result, snaps, values, traces)
    };

    flight::enable(false);
    let (base, base_snaps, base_values, _) = run(false);
    flight::enable(true);
    let (hot, hot_snaps, hot_values, traces) = run(true);
    flight::enable(false);

    assert_eq!(base.total_io, hot.total_io);
    assert_eq!(base.par_io, hot.par_io);
    assert_eq!(base.child_io, hot.child_io);
    assert_eq!(base.update_io, hot.update_io);
    assert_eq!(base.values_returned, hot.values_returned);
    assert_eq!(
        base_snaps, hot_snaps,
        "instrumentation moved an I/O counter"
    );
    assert_eq!(base_values, hot_values);
    assert!(traces > 0, "no retrieve was traced");
}

/// Engine-level exactness, for every strategy over a sampled sequence:
/// each traced query's ledger totals equal the pool's `IoStats` delta,
/// and its per-phase wall time sums to its total. The ledger and the
/// pool are fed by the same `IoStats` calls, so any drift is a
/// collector bug.
#[test]
fn traced_query_matches_io_ledger() {
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
        let stats = engine.pool().stats();
        let mut traced = 0;
        for q in sequence.iter().step_by(4) {
            let Query::Retrieve(r) = q else { continue };
            let before = stats.snapshot();
            let (out, ledger) = traced_retrieve(&engine, strategy, r);
            let delta = stats.snapshot().since(&before);

            assert!(!out.values.is_empty());
            assert_eq!(ledger.total_reads(), delta.reads, "{strategy}");
            assert_eq!(ledger.total_writes(), delta.writes, "{strategy}");
            assert_eq!(
                ledger.wall_by_phase().iter().sum::<u64>(),
                ledger.total_ns,
                "{strategy}"
            );
            traced += 1;
        }
        assert!(traced > 0, "{strategy}: nothing sampled");
    }
}
