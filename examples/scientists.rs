//! The paper's running example (Sec. 2): groups of persons as complex
//! objects.
//!
//! ```text
//! group (name, members, ...)        elders:   persons with age >= 60
//! person (name, age, ...)           children: persons with age <= 15
//!                                   cyclists: persons with cycling hobby
//! ```
//!
//! Shows the OID representation with shared subobjects (Mary is both an
//! elder and a cyclist), and unit caching with I-lock invalidation when a
//! person is updated.
//!
//! ```text
//! cargo run --release --example scientists
//! ```
//!
//! `scripts/check.sh` diffs its output against `results/scientists.txt`.

use complexobj::database::{CorDatabase, DatabaseSpec, ObjectSpec, SubobjectSpec, CHILD_REL_BASE};
use complexobj::strategies::execute_retrieve;
use complexobj::{
    apply_update, CacheConfig, ExecOptions, RetAttr, RetrieveQuery, Strategy, UpdateQuery,
};
use cor_pagestore::BufferPool;
use cor_relational::Oid;
use std::sync::Arc;

// The persons of Sec. 2.3's example, ages stored in ret1.
const PERSONS: &[(&str, i64)] = &[
    ("John", 62),
    ("Mary", 62),
    ("Paul", 68),
    ("Jill", 8),
    ("Bill", 12),
    ("Mike", 44),
];

fn person_oid(i: usize) -> Oid {
    Oid::new(CHILD_REL_BASE, i as u64)
}

fn main() {
    // Groups: elders = {John, Mary, Paul}, children = {Jill, Bill},
    // cyclists = {Mary, Mike}. Mary is shared (OverlapFactor > 1 in the
    // paper's terms: the elders and cyclists units overlap).
    let groups: &[(&str, &[usize])] = &[
        ("elders", &[0, 1, 2]),
        ("children", &[3, 4]),
        ("cyclists", &[1, 5]),
    ];

    let spec = DatabaseSpec {
        parents: groups
            .iter()
            .enumerate()
            .map(|(g, (name, members))| ObjectSpec {
                key: g as u64,
                rets: [g as i64, 0, 0],
                dummy: name.to_string(),
                children: members.iter().map(|&m| person_oid(m)).collect(),
            })
            .collect(),
        child_rels: vec![PERSONS
            .iter()
            .enumerate()
            .map(|(i, (name, age))| SubobjectSpec {
                oid: person_oid(i),
                rets: [*age, i as i64, 0],
                dummy: name.to_string(),
            })
            .collect()],
    };

    let pool = Arc::new(BufferPool::builder().capacity(16).build());
    let db = CorDatabase::build_standard(
        pool,
        &spec,
        Some(CacheConfig {
            capacity: 8,
            ..CacheConfig::default()
        }),
    )
    .expect("database builds");

    // The paper's example query:
    //   retrieve (group.members.age) where group.name = "elders"
    //                                   or group.name = "children"
    // Groups 0..1 are exactly elders and children.
    let query = RetrieveQuery {
        lo: 0,
        hi: 1,
        attr: RetAttr::Ret1,
    };
    let opts = ExecOptions::default();

    println!("retrieve (group.members.age) where group is elders or children:\n");
    let out = execute_retrieve(&db, Strategy::DfsCache, &query, &opts).expect("query runs");
    let mut ages = out.values.clone();
    ages.sort_unstable();
    println!(
        "  ages = {ages:?}  ({} page I/Os, cold cache)\n",
        out.total_io()
    );
    assert_eq!(ages, vec![8, 12, 62, 62, 68]);

    // Run again: both units are now cached.
    let out2 = execute_retrieve(&db, Strategy::DfsCache, &query, &opts).expect("query runs");
    println!(
        "  repeated with warm cache: {} page I/Os (cache hits: {})\n",
        out2.total_io(),
        db.cache_mut().unwrap().counters().hits
    );
    assert!(out2.total_io() <= out.total_io());

    // Mary has a birthday: update her age in place. The I-lock she holds
    // for the cached elders unit (and the cyclists unit, were it cached)
    // invalidates them.
    println!("update person Mary: age 62 -> 63 (I-lock invalidation follows)");
    let update = UpdateQuery {
        targets: vec![person_oid(1)],
        new_ret1: 63,
    };
    apply_update(&db, &update, true).expect("update applies");
    let counters = db.cache_mut().unwrap().counters();
    println!("  invalidated cached units: {}\n", counters.invalidations);
    assert!(counters.invalidations >= 1);

    // The next query must see the new age — no stale cache reads.
    let out3 = execute_retrieve(&db, Strategy::DfsCache, &query, &opts).expect("query runs");
    let mut ages3 = out3.values.clone();
    ages3.sort_unstable();
    println!("  ages after update = {ages3:?}");
    assert_eq!(ages3, vec![8, 12, 62, 63, 68]);
}
