//! Cross-crate integration: query temporaries are unlogged and reclaimed.
//!
//! The paper charges BFS for "forming the temporary relation" in page I/O
//! and nothing else (Sec. 3.1). These tests pin the two things the engine
//! must therefore *not* charge: a retrieve-only query appends nothing to
//! the write-ahead log, and a long run of queries leaves the store no
//! larger than its first queries made it — the BFS temporary, the
//! multi-level frontier temporary and the sorter's spill runs all hand
//! their pages back.

use complexobj::multilevel::{execute_multilevel, MultiDotQuery};
use complexobj::strategies::execute_retrieve;
use complexobj::{
    CacheConfig, CorDatabase, ExecOptions, JoinChoice, RetAttr, RetrieveQuery, Strategy,
    UpdateQuery,
};
use cor_pagestore::{BufferPool, MemDisk};
use cor_wal::MemLogStore;
use cor_workload::{
    generate, generate_hierarchy_specs, Engine, EngineSpec, HierarchyParams, Params,
};
use std::sync::Arc;

/// Sort work memory small enough that every temporary spills to runs.
const SPILLING: usize = 256;

#[test]
fn temporaries_are_reclaimed_across_queries() {
    let hp = HierarchyParams {
        levels: 2,
        top_card: 120,
        fan_out: 4,
        use_factor: 3,
        parent_dummy_len: 20,
        child_dummy_len: 20,
        buffer_pages: 24,
        seed: 7,
    };
    // Every level on one pool, so one page count covers every temporary.
    let pool = Arc::new(BufferPool::builder().capacity(hp.buffer_pages).build());
    let levels: Vec<CorDatabase> = generate_hierarchy_specs(&hp)
        .iter()
        .map(|spec| CorDatabase::build_standard(Arc::clone(&pool), spec, None).unwrap())
        .collect();
    let opts = ExecOptions {
        sort_work_mem: SPILLING,
        ..ExecOptions::default()
    };
    let single = |lo: u64, width: u64| {
        let q = RetrieveQuery {
            lo,
            hi: lo + width - 1,
            attr: RetAttr::Ret1,
        };
        let out = execute_retrieve(&levels[0], Strategy::BfsNoDup, &q, &opts).unwrap();
        assert!(!out.values.is_empty());
    };
    let multi = |lo: u64, width: u64| {
        let q = MultiDotQuery {
            lo,
            hi: lo + width - 1,
            attr: RetAttr::Ret1,
        };
        let out = execute_multilevel(&levels, Strategy::BfsNoDup, &q, &opts).unwrap();
        assert!(!out.values.is_empty());
    };

    // The first two queries are the widest of each kind: they set the
    // high-water mark of simultaneously live temporary pages.
    let built = pool.num_pages();
    single(0, 60);
    multi(0, 60);
    let after_two = pool.num_pages();
    assert!(after_two > built, "spilling queries must allocate pages");

    for i in 0..200u64 {
        single((i * 7) % 60, 40);
    }
    for i in 0..50u64 {
        multi((i * 11) % 60, 40);
    }
    assert_eq!(
        pool.num_pages(),
        after_two,
        "250 more queries must recycle the pages of the first two"
    );
}

fn tiny() -> Params {
    Params {
        parent_card: 200,
        num_top: 20,
        buffer_pages: 16,
        size_cache: 20,
        ..Params::paper_default()
    }
}

#[test]
fn temporaries_never_reach_the_log() {
    let p = tiny();
    let generated = generate(&p);
    let spec = EngineSpec::Standard(generated.spec.clone());
    let builder = || {
        Engine::builder()
            .pool_pages(p.buffer_pages)
            .cache(CacheConfig::default())
    };
    let plain = builder().build(&spec).unwrap();
    let durable = builder()
        .create_on(
            Arc::new(MemDisk::new()),
            Arc::new(MemLogStore::new()),
            &spec,
        )
        .unwrap();
    let wal = durable.wal().unwrap();
    // The build is not logged: its pages were written back before the
    // pool took the log, so the retrieves below have none of it to evict.
    // The log holds only the catalog save: page 0's new head and its one
    // chain page's zero image and contents.
    assert_eq!(wal.stats().appends, 3, "the build was logged");

    let query = RetrieveQuery {
        lo: 30,
        hi: 30 + p.num_top - 1,
        attr: RetAttr::Ret2,
    };
    for strategy in [Strategy::Bfs, Strategy::BfsNoDup, Strategy::Smart] {
        for join in [JoinChoice::ForceMerge, JoinChoice::ForceIterative] {
            for sort_work_mem in [SPILLING, ExecOptions::default().sort_work_mem] {
                let opts = ExecOptions {
                    // SMART takes its breadth-first arm above the threshold.
                    smart_threshold: 1,
                    join,
                    sort_work_mem,
                };
                let before = wal.stats();
                let mut got =
                    execute_retrieve(durable.database().unwrap(), strategy, &query, &opts)
                        .unwrap()
                        .values;
                assert_eq!(
                    wal.stats(),
                    before,
                    "{strategy} {join:?} work_mem {sort_work_mem}: a retrieve logged something"
                );
                let mut want = execute_retrieve(plain.database().unwrap(), strategy, &query, &opts)
                    .unwrap()
                    .values;
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{strategy} {join:?}: WAL-on answer differs");
                assert!(!got.is_empty());
            }
        }
    }

    // Base-relation writes are still logged.
    let before = wal.stats();
    durable
        .update(&UpdateQuery {
            targets: vec![generated.spec.child_rels[0][3].oid],
            new_ret1: 4242,
        })
        .unwrap();
    let after = wal.stats();
    assert!(after.appends > before.appends && after.bytes > before.bytes);
}
