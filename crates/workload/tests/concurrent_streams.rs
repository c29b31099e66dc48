//! Several query streams on their own threads over one `&Engine`.
//!
//! The engine has no multi-stream driver: a caller that wants several
//! streams spawns its own threads and hands each the same `&Engine`. The
//! `std::thread::scope` spawns below only compile because `Engine` is
//! `Sync`. Read-only streams must answer every query exactly as a
//! sequential run of that query does; mixed streams must finish without
//! an error.

use complexobj::{Query, Strategy};
use cor_workload::{generate, generate_sequence, Engine, Params};

const STREAMS: u64 = 4;

fn params(pr_update: f64) -> Params {
    Params {
        parent_card: 300,
        num_top: 5,
        sequence_len: 40,
        pr_update,
        buffer_pages: 16,
        shards: 4,
        ..Params::paper_default()
    }
}

/// One query sequence per stream, each from its own derived seed so the
/// streams do not replay each other; stream 0 is `generate_sequence(p)`.
fn stream_sequences(p: &Params) -> Vec<Vec<Query>> {
    (0..STREAMS)
        .map(|i| {
            generate_sequence(&Params {
                seed: p.seed.wrapping_add(i.wrapping_mul(0x5DEECE66D)),
                ..p.clone()
            })
        })
        .collect()
}

/// Run every stream on its own scoped thread over `engine`, each query
/// through `run`, and collect each stream's results in order.
fn run_streams<T: Send>(
    engine: &Engine,
    sequences: &[Vec<Query>],
    run: impl Fn(&Engine, &Query) -> T + Sync,
) -> Vec<Vec<T>> {
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .map(|sequence| scope.spawn(move || sequence.iter().map(|q| run(engine, q)).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread panicked"))
            .collect()
    })
}

fn sorted_answer(engine: &Engine, query: &Query) -> Vec<i64> {
    let Query::Retrieve(r) = query else {
        panic!("read-only stream issued {query:?}")
    };
    let mut values = engine.retrieve(Strategy::Dfs, r).unwrap().values;
    values.sort_unstable();
    values
}

#[test]
fn read_only_streams_answer_as_a_sequential_run_does() {
    let p = params(0.0);
    let generated = generate(&p);
    let engine = Engine::builder()
        .build_workload(&p, &generated, Strategy::Dfs)
        .unwrap();
    let sequences = stream_sequences(&p);
    assert_ne!(sequences[0], sequences[1], "streams replay each other");

    let expected: Vec<Vec<Vec<i64>>> = sequences
        .iter()
        .map(|s| s.iter().map(|q| sorted_answer(&engine, q)).collect())
        .collect();
    let got = run_streams(&engine, &sequences, sorted_answer);
    assert_eq!(got, expected);
}

#[test]
fn mixed_streams_finish_without_error() {
    let p = params(0.3);
    let generated = generate(&p);
    let engine = Engine::builder()
        .build_workload(&p, &generated, Strategy::Dfs)
        .unwrap();
    let sequences = stream_sequences(&p);

    let is_update = run_streams(&engine, &sequences, |engine, q| match q {
        Query::Retrieve(r) => engine.retrieve(Strategy::Dfs, r).map(|_| false),
        Query::Update(u) => engine.update(u).map(|_| true),
    });
    let (mut retrieves, mut updates) = (0, 0);
    for outcome in is_update.into_iter().flatten() {
        if outcome.unwrap() {
            updates += 1;
        } else {
            retrieves += 1;
        }
    }
    assert!(updates > 0, "the mix includes updates");
    assert_eq!(retrieves + updates, STREAMS as usize * p.sequence_len);
}
