//! Cross-crate integration: the unit-value cache never serves stale data.
//!
//! The paper's I-lock scheme (Sec. 3.2) exists precisely so that "updates
//! will [not] invalidate the units in the cache" silently. These tests
//! interleave updates with retrieves and compare every cached strategy's
//! answers against an uncached DFS baseline replaying the same history.

use complexobj::strategies::execute_retrieve;
use complexobj::{apply_update, ExecOptions, Query, RetAttr, RetrieveQuery, Strategy};
use cor_workload::{generate, generate_sequence, Engine, GeneratedDb, Params};

fn params(pr_update: f64) -> Params {
    Params {
        parent_card: 240,
        use_factor: 4,
        size_cache: 20,
        buffer_pages: 16,
        sequence_len: 60,
        num_top: 12,
        pr_update,
        update_batch: 6,
        ..Params::paper_default()
    }
}

/// The engine a workload point builds for `strategy`.
fn build(p: &Params, generated: &GeneratedDb, strategy: Strategy) -> Engine {
    Engine::builder()
        .build_workload(p, generated, strategy)
        .expect("engine builds")
}

/// Replay one mixed sequence on a cached database and an uncached
/// baseline, checking every retrieve agrees.
fn replay_and_compare(strategy: Strategy, pr_update: f64, smart_threshold: u64) {
    let p = params(pr_update);
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    assert!(
        sequence.iter().any(|q| matches!(q, Query::Update(_))),
        "sequence must contain updates for this test to bite"
    );

    let cached = build(&p, &generated, strategy);
    let baseline = build(&p, &generated, Strategy::Dfs);
    let (cached_db, baseline_db) = (cached.database().unwrap(), baseline.database().unwrap());
    let opts = ExecOptions {
        smart_threshold,
        ..ExecOptions::default()
    };

    // When testing SMART's breadth-first arm (threshold below NumTop), the
    // arm itself never fills the cache — warm it through the DFSCACHE arm
    // first so the replay actually reads cached units.
    if strategy == Strategy::Smart && smart_threshold < p.num_top {
        let warm = ExecOptions {
            smart_threshold: p.parent_card,
            ..ExecOptions::default()
        };
        let q = RetrieveQuery {
            lo: 0,
            hi: p.parent_card - 1,
            attr: RetAttr::Ret1,
        };
        execute_retrieve(cached_db, Strategy::Smart, &q, &warm).expect("cache warm-up");
    }

    for (i, q) in sequence.iter().enumerate() {
        match q {
            Query::Retrieve(r) => {
                let mut got = execute_retrieve(cached_db, strategy, r, &opts)
                    .expect("cached run")
                    .values;
                let mut expect = execute_retrieve(baseline_db, Strategy::Dfs, r, &opts)
                    .expect("baseline")
                    .values;
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(
                    got, expect,
                    "{strategy} stale/incorrect at query {i}: {r:?}"
                );
            }
            Query::Update(u) => {
                apply_update(cached_db, u, true).expect("cached update");
                apply_update(baseline_db, u, false).expect("baseline update");
            }
        }
    }

    let counters = cached_db.cache_mut().expect("cache present").counters();
    assert!(counters.insertions > 0, "cache was exercised");
    assert!(
        counters.invalidations > 0,
        "updates of cached subobjects must invalidate units (got {counters:?})"
    );
}

#[test]
fn dfs_cache_is_never_stale_light_updates() {
    replay_and_compare(Strategy::DfsCache, 0.2, 300);
}

#[test]
fn dfs_cache_is_never_stale_heavy_updates() {
    replay_and_compare(Strategy::DfsCache, 0.6, 300);
}

#[test]
fn smart_low_arm_is_never_stale() {
    // Threshold above NumTop: SMART always runs its DFSCACHE arm.
    replay_and_compare(Strategy::Smart, 0.3, 300);
}

#[test]
fn smart_bfs_arm_is_never_stale() {
    // Threshold below NumTop: SMART always runs its breadth-first arm,
    // reading cached units without maintaining them.
    replay_and_compare(Strategy::Smart, 0.3, 1);
}

#[test]
fn inside_placed_cache_is_never_stale() {
    use complexobj::{CacheConfig, CachePlacement};
    use cor_workload::EngineSpec;

    let p = params(0.3);
    let generated = generate(&p);
    let sequence = generate_sequence(&p);

    let inside = Engine::builder()
        .pool_pages(p.buffer_pages)
        .shards(p.shards)
        .cache(CacheConfig {
            capacity: p.size_cache,
            placement: CachePlacement::Inside,
            ..CacheConfig::default()
        })
        .build(&EngineSpec::Standard(generated.spec.clone()))
        .expect("inside db");
    let baseline = build(&p, &generated, Strategy::Dfs);
    let (inside_db, baseline_db) = (inside.database().unwrap(), baseline.database().unwrap());
    let opts = ExecOptions::default();

    for (i, q) in sequence.iter().enumerate() {
        match q {
            Query::Retrieve(r) => {
                let mut got = execute_retrieve(inside_db, Strategy::DfsCache, r, &opts)
                    .unwrap()
                    .values;
                let mut expect = execute_retrieve(baseline_db, Strategy::Dfs, r, &opts)
                    .unwrap()
                    .values;
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "inside cache stale at query {i}");
            }
            Query::Update(u) => {
                apply_update(inside_db, u, true).unwrap();
                apply_update(baseline_db, u, false).unwrap();
            }
        }
    }
    let k = inside_db.cache_counters().expect("counters");
    assert!(
        k.insertions > 0 && k.invalidations > 0,
        "inside cache exercised: {k:?}"
    );
}

#[test]
fn clustered_updates_are_visible() {
    // No cache involved, but updates must land in ClusterRel through the
    // OID index and be returned by subsequent scans.
    let p = params(0.4);
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    let clustered_engine = build(&p, &generated, Strategy::DfsClust);
    let baseline_engine = build(&p, &generated, Strategy::Dfs);
    let clustered = clustered_engine.database().unwrap();
    let baseline = baseline_engine.database().unwrap();
    let opts = ExecOptions::default();

    for q in &sequence {
        match q {
            Query::Retrieve(r) => {
                let mut got = execute_retrieve(clustered, Strategy::DfsClust, r, &opts)
                    .unwrap()
                    .values;
                let mut expect = execute_retrieve(baseline, Strategy::Dfs, r, &opts)
                    .unwrap()
                    .values;
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "clustered update lost at {r:?}");
            }
            Query::Update(u) => {
                apply_update(clustered, u, false).unwrap();
                apply_update(baseline, u, false).unwrap();
            }
        }
    }
}

#[test]
fn capacity_pressure_does_not_corrupt_answers() {
    // A cache of 3 units thrashes constantly; correctness must survive.
    let mut p = params(0.3);
    p.size_cache = 3;
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    let cached = build(&p, &generated, Strategy::DfsCache);
    let baseline = build(&p, &generated, Strategy::Dfs);
    let (cached_db, baseline_db) = (cached.database().unwrap(), baseline.database().unwrap());
    let opts = ExecOptions::default();

    for q in &sequence {
        match q {
            Query::Retrieve(r) => {
                let mut got = execute_retrieve(cached_db, Strategy::DfsCache, r, &opts)
                    .unwrap()
                    .values;
                let mut expect = execute_retrieve(baseline_db, Strategy::Dfs, r, &opts)
                    .unwrap()
                    .values;
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect);
            }
            Query::Update(u) => {
                apply_update(cached_db, u, true).unwrap();
                apply_update(baseline_db, u, false).unwrap();
            }
        }
    }
    let c = cached_db.cache_mut().unwrap().counters();
    assert!(c.evictions > 0, "tiny cache must evict (got {c:?})");
    assert!(cached_db.cache_mut().unwrap().len() <= 3);
}
