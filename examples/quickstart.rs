//! Quickstart: build a small complex-object database, run the same query
//! under every strategy of the paper, and compare I/O costs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use complexobj::{RetAttr, RetrieveQuery, Strategy};
use cor_workload::{generate, Engine, Params};

fn main() {
    // A 1/10-scale paper database: 1,000 complex objects, each referencing
    // a unit of 5 subobjects; ShareFactor 5.
    let params = Params {
        use_factor: 5,
        overlap_factor: 1,
        ..Params::scaled(0.1)
    };
    let generated = generate(&params);
    println!(
        "database: {} objects, {} subobjects, {} distinct units (ShareFactor {})\n",
        generated.spec.parents.len(),
        generated
            .spec
            .child_rels
            .iter()
            .map(|r| r.len())
            .sum::<usize>(),
        generated.units.len(),
        params.share_factor(),
    );

    // The paper's query: retrieve (ParentRel.children.ret1)
    //                    where 100 <= ParentRel.OID <= 149
    let query = RetrieveQuery {
        lo: 100,
        hi: 149,
        attr: RetAttr::Ret1,
    };
    println!(
        "query: retrieve (ParentRel.children.ret1) where {} <= OID <= {}  (NumTop = {})\n",
        query.lo,
        query.hi,
        query.num_top()
    );

    println!(
        "{:<10} {:>8} {:>8} {:>8}  values",
        "strategy", "ParCost", "ChildCost", "total"
    );
    for strategy in Strategy::ALL {
        // Each strategy runs cold on a fresh engine in the representation
        // it needs (clustered for DFSCLUST, cache-attached for
        // DFSCACHE/SMART), built from the same logical contents.
        let engine = Engine::builder()
            .build_workload(&params, &generated, strategy)
            .expect("database builds");
        engine.pool().flush_and_clear().expect("cold start");
        let out = engine.retrieve(strategy, &query).expect("query runs");
        println!(
            "{:<10} {:>8} {:>8} {:>8}  {}",
            strategy.name(),
            out.par_io.total(),
            out.child_io.total(),
            out.total_io(),
            out.values.len()
        );
    }

    println!(
        "\nEvery strategy returns the same multiset of values (BFSNODUP returns\n\
         each shared subobject once); they differ only in page I/O — the\n\
         tradeoff the paper's Figures 3-7 map out. Run the figure benches:\n\
         cargo run -p cor-bench --release --bin fig3"
    );
}
