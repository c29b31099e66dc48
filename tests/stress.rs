//! Long-running stress tests, `#[ignore]`d by default. Run with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! These replay paper-scale workloads across every strategy and
//! representation, checking answer agreement throughout — the heavyweight
//! version of the default-suite equivalence tests.

use complexobj::{Query, Strategy};
use cor_workload::{
    generate, generate_matrix, generate_sequence, run_matrix_point, Engine, MatrixSystem, Params,
};

/// Full paper-scale database, all five equivalent strategies, 100 mixed
/// queries replayed in lockstep.
#[test]
#[ignore = "paper-scale stress run (~minutes); run explicitly"]
fn full_scale_strategy_equivalence_under_updates() {
    let p = Params {
        pr_update: 0.2,
        num_top: 200,
        sequence_len: 100,
        ..Params::paper_default()
    };
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    let strategies = [
        Strategy::Dfs,
        Strategy::Bfs,
        Strategy::DfsCache,
        Strategy::DfsClust,
        Strategy::Smart,
    ];
    let engines: Vec<_> = strategies
        .iter()
        .map(|&s| {
            Engine::builder()
                .build_workload(&p, &generated, s)
                .expect("db builds")
        })
        .collect();

    for (i, q) in sequence.iter().enumerate() {
        match q {
            Query::Retrieve(r) => {
                let mut reference: Option<Vec<i64>> = None;
                for (s, engine) in strategies.iter().zip(&engines) {
                    let mut v = engine.retrieve(*s, r).expect("runs").values;
                    v.sort_unstable();
                    match &reference {
                        None => reference = Some(v),
                        Some(expect) => assert_eq!(&v, expect, "{s} diverged at query {i}"),
                    }
                }
            }
            Query::Update(u) => {
                for engine in &engines {
                    engine.update(u).expect("update applies");
                }
            }
        }
    }
}

/// Every representation-matrix system at 0.5 scale over an update-heavy
/// sequence, cross-checked on returned value counts.
#[test]
#[ignore = "matrix stress run (~minutes); run explicitly"]
fn half_scale_matrix_systems_agree() {
    let p = Params {
        pr_update: 0.3,
        num_top: 40,
        sequence_len: 120,
        ..Params::scaled(0.5)
    };
    let spec = generate_matrix(&p);
    let mut expected: Option<u64> = None;
    for system in MatrixSystem::ALL {
        let r = run_matrix_point(&p, &spec, system).expect("system runs");
        match expected {
            None => expected = Some(r.values_returned),
            Some(e) => {
                assert_eq!(
                    r.values_returned,
                    e,
                    "{} returned a different count",
                    system.name()
                )
            }
        }
    }
}

/// Buffer-pool soak: a paper-scale DFSCACHE run with a pathologically tiny
/// buffer must still answer correctly (thrash, not corrupt).
#[test]
#[ignore = "thrash soak (~minutes); run explicitly"]
fn tiny_buffer_thrash_soak() {
    let p = Params {
        buffer_pages: 8,
        pr_update: 0.1,
        num_top: 100,
        sequence_len: 60,
        ..Params::paper_default()
    };
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    let build = |s| Engine::builder().build_workload(&p, &generated, s).unwrap();
    let cached = build(Strategy::DfsCache);
    let plain = build(Strategy::Dfs);
    for q in &sequence {
        match q {
            Query::Retrieve(r) => {
                let mut a = cached.retrieve(Strategy::DfsCache, r).unwrap().values;
                let mut b = plain.retrieve(Strategy::Dfs, r).unwrap().values;
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
            Query::Update(u) => {
                cached.update(u).unwrap();
                plain.update(u).unwrap();
            }
        }
    }
}
