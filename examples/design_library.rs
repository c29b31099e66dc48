//! An OO7-flavoured design-library workload on a three-level hierarchy
//! (assemblies → composite parts → atomic parts), queried through the QUEL
//! front-end and the multi-level executors.
//!
//! The paper's CAD motivation (Sec. 1) is exactly this shape; OO7 — the
//! complex-object benchmark that followed it — standardized the
//! traversal-vs-query distinction this example shows:
//!
//! * **T1-style full traversal** — visit every atomic part reachable from
//!   a range of assemblies (a three-dot query over the whole library);
//! * **Q1-style point lookups** — fetch the parts of a single assembly.
//!
//! ```text
//! cargo run --release --example design_library
//! ```

use complexobj::multilevel::MultiDotQuery;
use complexobj::{parse_quel, QuelStatement, Strategy};
use cor_workload::{
    generate_hierarchy_specs, snapshot_hierarchy, total_hierarchy_io, Engine, EngineSpec,
    HierarchyParams,
};

fn main() {
    // 500 assemblies, each using 4 shared composite parts, each composite
    // made of 4 shared atomic parts.
    let hp = HierarchyParams {
        levels: 2,
        top_card: 500,
        fan_out: 4,
        use_factor: 2,
        buffer_pages: 100,
        seed: 2007,
        ..HierarchyParams::default()
    };
    let engine = Engine::builder()
        .pool_pages(hp.buffer_pages)
        .build(&EngineSpec::Levels(generate_hierarchy_specs(&hp)))
        .expect("library builds");
    let library = engine.levels();
    println!(
        "design library: {} assemblies -> {} composite parts -> {} atomic parts\n",
        hp.card_at(0),
        hp.card_at(1),
        hp.card_at(2)
    );

    // The three-dot query, written in QUEL and parsed by the front-end.
    let quel = format!(
        "retrieve (ParentRel.children.children.ret1) where 0 <= ParentRel.OID <= {}",
        hp.card_at(0) - 1
    );
    println!("T1 traversal: {quel}\n");
    let Ok(QuelStatement::RetrieveMulti { query, depth }) = parse_quel(&quel) else {
        panic!("three-dot query must parse as a multi-level retrieve");
    };
    assert_eq!(depth, 2, "two 'children' hops need a two-database chain");

    println!(
        "{:<10} {:>12} {:>12}",
        "strategy", "page I/O", "parts visited"
    );
    for s in [Strategy::Dfs, Strategy::Bfs, Strategy::BfsNoDup] {
        for db in library {
            db.pool().flush_and_clear().expect("cold start");
        }
        let before = snapshot_hierarchy(library);
        let out = engine
            .retrieve_multilevel(s, &query)
            .expect("traversal runs");
        let io = total_hierarchy_io(library, &before);
        println!("{:<10} {:>12} {:>12}", s.name(), io, out.values.len());
    }

    // Q1-style: open one assembly's parts, repeatedly (a designer's loop).
    println!("\nQ1 lookups: one assembly at a time, 100 times");
    for s in [Strategy::Dfs, Strategy::Bfs] {
        for db in library {
            db.pool().flush_and_clear().expect("cold start");
        }
        let before = snapshot_hierarchy(library);
        let mut visited = 0usize;
        for i in 0..100u64 {
            let a = (i * 37) % hp.card_at(0);
            let q = MultiDotQuery {
                lo: a,
                hi: a,
                attr: query.attr,
            };
            visited += engine
                .retrieve_multilevel(s, &q)
                .expect("lookup runs")
                .values
                .len();
        }
        let io = total_hierarchy_io(library, &before);
        println!("{:<10} {:>12} {:>12}", s.name(), io, visited);
    }

    println!(
        "\nThe traversal favours breadth-first processing (level-at-a-time joins);\n\
         the designer's point lookups favour depth-first probing — the same\n\
         NumTop tradeoff the paper maps for two-dot queries, compounded per level."
    );
}
