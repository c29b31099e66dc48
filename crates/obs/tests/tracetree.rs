//! Trace-tree integration tests: proptest-driven phase-guard scripts
//! proving that a causal trace's per-phase ledger equals a reference
//! model charged at [`current_phase`] *exactly*, that its per-phase wall
//! time sums to the trace's total, plus structural well-formedness of
//! the tree and its Chrome export under arbitrary guard nesting.

use cor_obs::{current_phase, tracetree, Phase, PhaseGuard, PHASE_COUNT};
use proptest::prelude::*;

/// One scripted operation against the phase layer: what a query does,
/// reduced to its observable effects.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `PhaseGuard::enter` — strategy-level bracket.
    Enter(Phase),
    /// `PhaseGuard::enter_default` — access-layer bracket.
    EnterDefault(Phase),
    /// Drop the innermost open guard (if any).
    Exit,
    /// One page read, charged like `IoStats::record_read` charges it:
    /// reference model and trace collector from the same call site.
    Read,
    /// One page write, ditto.
    Write,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 0usize..PHASE_COUNT).prop_map(|(op, ph)| {
        let phase = Phase::ALL[ph];
        match op {
            0 => Op::Enter(phase),
            1 => Op::EnterDefault(phase),
            2 => Op::Exit,
            3 => Op::Read,
            _ => Op::Write,
        }
    })
}

/// The reference ledger: reads and writes per phase, indexed by
/// [`Phase::index`].
#[derive(Default)]
struct Model {
    reads: [u64; PHASE_COUNT],
    writes: [u64; PHASE_COUNT],
}

/// Run a script under an active trace, feeding `model` and the
/// collector through the same charge points. Guards unwind innermost
/// first (LIFO), like real call frames.
fn run_script(ops: &[Op], model: &mut Model) -> tracetree::TraceGuard {
    let guard = tracetree::start("prop script");
    let mut stack: Vec<PhaseGuard> = Vec::new();
    for op in ops {
        match op {
            Op::Enter(phase) => stack.push(PhaseGuard::enter(*phase)),
            Op::EnterDefault(phase) => stack.push(PhaseGuard::enter_default(*phase)),
            Op::Exit => {
                stack.pop();
            }
            Op::Read => {
                model.reads[current_phase().index()] += 1;
                tracetree::charge_read();
            }
            Op::Write => {
                model.writes[current_phase().index()] += 1;
                tracetree::charge_write();
            }
        }
    }
    while stack.pop().is_some() {}
    guard
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The ledger invariant: for any interleaving of phase brackets and
    /// I/O, the tree's per-phase read/write sums equal the reference
    /// model — not approximately, exactly — and its per-phase wall time
    /// partitions the trace's total. Attribution is never lost,
    /// duplicated, or misfiled; node sums agree with the ledger's total.
    #[test]
    fn ledger_equals_the_model_and_wall_sums_to_total(
        ops in proptest::collection::vec(op_strategy(), 0..200)
    ) {
        let mut model = Model::default();
        let tree = run_script(&ops, &mut model)
            .finish()
            .expect("trace started by this test must finish");

        let (reads, writes) = (tree.reads_by_phase(), tree.writes_by_phase());
        for phase in Phase::ALL {
            prop_assert_eq!(
                reads[phase.index()], model.reads[phase.index()],
                "{} reads drifted from the model", phase.name()
            );
            prop_assert_eq!(
                writes[phase.index()], model.writes[phase.index()],
                "{} writes drifted from the model", phase.name()
            );
        }
        prop_assert_eq!(tree.wall_by_phase().iter().sum::<u64>(), tree.total_ns);
        prop_assert_eq!(tree.nodes.iter().map(|n| n.reads).sum::<u64>(), tree.total_reads());
        prop_assert_eq!(tree.nodes.iter().map(|n| n.writes).sum::<u64>(), tree.total_writes());
    }

    /// Any script yields a structurally valid tree (rooted, parents
    /// before children, child intervals inside their parents') whose
    /// Chrome export is balanced JSON carrying every node.
    #[test]
    fn tree_is_well_formed_and_exports(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let tree = run_script(&ops, &mut Model::default())
            .finish()
            .expect("trace started by this test must finish");
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());

        // Node count is bounded by the phase *transitions* (plus the
        // root): same-phase re-entry must not mint nodes.
        let enters = ops.iter()
            .filter(|o| matches!(o, Op::Enter(_) | Op::EnterDefault(_)))
            .count();
        prop_assert!(tree.nodes.len() <= enters + 1);

        let json = tree.to_chrome_json();
        prop_assert_eq!(
            json.matches('{').count(), json.matches('}').count(),
            "unbalanced braces in chrome export"
        );
        prop_assert_eq!(json.matches("\"ph\":\"X\"").count(), tree.nodes.len());
        prop_assert!(json.contains(&format!("\"trace_id\":{}", tree.id)));
    }
}

/// Charges landing while no trace is active must not leak into the next
/// trace on the same thread.
#[test]
fn untraced_charges_do_not_leak_into_later_traces() {
    tracetree::charge_read();
    let tree = run_script(
        &[Op::Enter(Phase::HeapFetch), Op::Write, Op::Exit],
        &mut Model::default(),
    )
    .finish()
    .expect("trace finishes");
    assert_eq!(tree.total_reads(), 0, "pre-trace read leaked into the tree");
    assert_eq!(tree.total_writes(), 1);
}
