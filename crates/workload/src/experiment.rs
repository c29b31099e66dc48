//! Experiment runner: single points and the parallel parameter sweeps
//! behind Figures 3–7.

use crate::dbgen::generate;
use crate::driver::RunResult;
use crate::engine::Engine;
use crate::params::Params;
use crate::seqgen::generate_sequence;
use complexobj::{CorError, Strategy};

/// Run one `(params, strategy)` point end to end: generate the database,
/// build the [`Engine`] the strategy needs, generate the query sequence
/// and measure it.
pub fn run_point(params: &Params, strategy: Strategy) -> Result<RunResult, CorError> {
    let generated = generate(params);
    let engine = Engine::builder().build_workload(params, &generated, strategy)?;
    let sequence = generate_sequence(params);
    engine.run_sequence(strategy, &sequence)
}

/// Map `f` over `inputs` on up to `threads` worker threads, preserving
/// input order in the output. Used by the Fig. 4 grid sweep (~300 points).
pub fn parallel_map<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(threads > 0);
    let n = inputs.len();
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let inputs_ref = &inputs;
    let f_ref = &f;

    // Hand each worker a disjoint set of output slots through a mutex-free
    // index claim; collect results via channels to avoid aliasing `out`.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, O)>();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f_ref(&inputs_ref[i]);
                tx.send((i, result))
                    .expect("main thread receives until all done");
            });
        }
        drop(tx);
        for (i, v) in rx {
            out[i] = Some(v);
        }
    })
    .expect("worker panicked");
    out.into_iter()
        .map(|v| v.expect("every slot filled"))
        .collect()
}

/// Reasonable worker count for sweeps on this machine.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            parent_card: 240,
            num_top: 12,
            sequence_len: 16,
            size_cache: 24,
            buffer_pages: 16,
            ..Params::paper_default()
        }
    }

    #[test]
    fn run_point_works_for_every_strategy() {
        let p = tiny();
        for s in Strategy::ALL {
            let r = run_point(&p, s).unwrap();
            assert_eq!(r.strategy, s);
            assert!(r.total_io > 0, "{s} should do I/O");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<u64> = (0..50).collect();
        let out = parallel_map(inputs, 8, |&x| x * x);
        assert_eq!(out, (0..50).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_and_empty() {
        assert_eq!(
            parallel_map(Vec::<u32>::new(), 4, |&x| x),
            Vec::<u32>::new()
        );
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |&x| x + 1), vec![2, 3, 4]);
    }
}
