//! Property-based integration tests: the paper's structural invariants
//! hold on randomly generated databases, and the strategies agree on
//! randomly generated queries.

use complexobj::strategies::execute_retrieve;
use complexobj::{measure_sharing, ExecOptions, RetAttr, RetrieveQuery, Strategy};
use cor_workload::{generate, Engine, Params};
use proptest::prelude::*;

fn arb_params() -> impl Strategy_<Value = Params> {
    (1u32..=5, 1u32..=4, 1usize..=3, 0u64..=7).prop_map(|(uf, of, rels, seed)| Params {
        parent_card: 200,
        use_factor: uf,
        overlap_factor: of,
        num_child_rels: rels,
        size_cache: 16,
        buffer_pages: 16,
        sequence_len: 4,
        num_top: 10,
        seed: 0xFEED + seed,
        ..Params::paper_default()
    })
}

// `Strategy` collides between proptest and complexobj; alias proptest's.
use proptest::strategy::Strategy as Strategy_;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Equation (1): the generator produces |ChildRel| = |ParentRel| x
    /// SizeUnit / ShareFactor subobjects (within rounding), split across
    /// NumChildRel relations.
    #[test]
    fn generated_cardinalities_follow_equation_one(p in arb_params()) {
        let g = generate(&p);
        let total: usize = g.spec.child_rels.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total as u64, p.child_card());
        prop_assert_eq!(g.spec.parents.len() as u64, p.parent_card);
        prop_assert_eq!(g.spec.child_rels.len(), p.num_child_rels);
    }

    /// The dealt units hit the requested sharing factors: UseFactor within
    /// rounding, OverlapFactor within the boundary-chunk tolerance.
    #[test]
    fn generated_sharing_factors_match(p in arb_params()) {
        let g = generate(&p);
        let f = measure_sharing(&g.assignment, &g.units);
        prop_assert!((f.use_factor - p.use_factor as f64).abs() < 0.5,
            "use_factor {} vs requested {}", f.use_factor, p.use_factor);
        prop_assert!((f.overlap_factor - p.overlap_factor as f64).abs() < 0.5,
            "overlap {} vs requested {}", f.overlap_factor, p.overlap_factor);
    }

    /// Every unit is single-relation with distinct members of size
    /// SizeUnit (paper Sec. 3.2: units are per-relation collections).
    #[test]
    fn generated_units_are_well_formed(p in arb_params()) {
        let g = generate(&p);
        for u in &g.units {
            prop_assert_eq!(u.len(), p.size_unit);
            let mut m = u.oids().to_vec();
            m.sort_unstable();
            m.dedup();
            prop_assert_eq!(m.len(), p.size_unit, "duplicate members in unit");
            let rel = u.relation().unwrap();
            prop_assert!(u.oids().iter().all(|o| o.rel == rel));
        }
    }

    /// All strategies agree on random queries over random databases.
    #[test]
    fn strategies_agree_on_random_queries(
        p in arb_params(),
        lo in 0u64..190,
        span in 0u64..60,
        attr_idx in 0usize..3,
    ) {
        let hi = (lo + span).min(p.parent_card - 1);
        let q = RetrieveQuery { lo, hi, attr: RetAttr::ALL[attr_idx] };
        let g = generate(&p);
        let opts = ExecOptions { smart_threshold: 16, ..ExecOptions::default() };

        let mut reference: Option<Vec<i64>> = None;
        for s in [Strategy::Dfs, Strategy::Bfs, Strategy::DfsCache, Strategy::DfsClust, Strategy::Smart] {
            let engine = Engine::builder().build_workload(&p, &g, s).expect("db builds");
            let mut v = execute_retrieve(engine.database().unwrap(), s, &q, &opts).expect("runs").values;
            v.sort_unstable();
            match &reference {
                None => reference = Some(v),
                Some(r) => prop_assert_eq!(&v, r, "{} diverged on {:?}", s, q),
            }
        }
    }

    /// I/O accounting is conserved: a retrieve's total equals ParCost +
    /// ChildCost, and a warm rerun never costs more than a cold run.
    #[test]
    fn io_accounting_is_consistent(p in arb_params(), lo in 0u64..150) {
        let q = RetrieveQuery { lo, hi: (lo + 20).min(p.parent_card - 1), attr: RetAttr::Ret1 };
        let g = generate(&p);
        let engine = Engine::builder().build_workload(&p, &g, Strategy::Bfs).expect("db");
        let db = engine.database().unwrap();
        db.pool().flush_and_clear().expect("cold");
        let opts = ExecOptions::default();
        let cold = execute_retrieve(db, Strategy::Bfs, &q, &opts).expect("cold run");
        prop_assert_eq!(cold.total_io(), cold.par_io.total() + cold.child_io.total());
        let warm = execute_retrieve(db, Strategy::Bfs, &q, &opts).expect("warm run");
        prop_assert!(warm.total_io() <= cold.total_io(),
            "warm {} > cold {}", warm.total_io(), cold.total_io());
    }
}
