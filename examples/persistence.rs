//! Durable storage through the engine: create a store in a directory,
//! update it, close, reopen with no spec at all, and get the same answers.
//!
//! `create` bulk-loads the page file without logging it, syncs it once,
//! and starts the write-ahead log with the catalog save; every update is
//! logged before its page can reach the disk, and `close` leaves a clean
//! checkpoint. Both sessions run the log under group commit
//! (`FsyncPolicy::EveryN(8)`): each query hands its records to the log
//! file as it ends and syncs there once eight or more are unsynced. `open` replays the log, reads the engine catalog from
//! page 0 — file roots, OID allocators, the cache directory, the pool's
//! geometry — and rebuilds the backend it records.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use complexobj::{CacheConfig, RetAttr, RetrieveQuery, Strategy, UpdateQuery};
use cor_wal::{FsyncPolicy, WalConfig};
use cor_workload::{generate, Engine, EngineBuilder, EngineSpec, Params};

/// Group commit, every eight records: the durable benchmark's policy.
fn builder() -> EngineBuilder {
    Engine::builder().wal_config(WalConfig {
        fsync: FsyncPolicy::EveryN(8),
        ..WalConfig::default()
    })
}

fn sorted_answer(engine: &Engine, query: &RetrieveQuery) -> Vec<i64> {
    let mut values = engine
        .retrieve(Strategy::DfsCache, query)
        .expect("retrieve")
        .values;
    values.sort_unstable();
    values
}

fn main() {
    // One directory per process, so two runs at once cannot collide.
    let dir = std::env::temp_dir().join(format!("cor-persistence-example-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // A 1/20-scale paper database: 500 objects over 500 shared subobjects.
    let params = Params::scaled(0.05);
    let generated = generate(&params);
    // retrieve (ParentRel.children.ret1) where 0 <= ParentRel.OID <= 19
    let query = RetrieveQuery {
        lo: 0,
        hi: 19,
        attr: RetAttr::Ret1,
    };

    // --- session 1: create, update, close --------------------------------
    let expected = {
        let engine = builder()
            .pool_pages(params.buffer_pages)
            .cache(CacheConfig {
                capacity: params.size_cache,
                ..CacheConfig::default()
            })
            .create(&dir, &EngineSpec::Standard(generated.spec.clone()))
            .expect("create the store");
        let before = sorted_answer(&engine, &query);

        // Overwrite ret1 of the first object's subobjects.
        let targets = generated.spec.parents[0].children.clone();
        engine
            .update(&UpdateQuery {
                targets,
                new_ret1: 4242,
            })
            .expect("update");
        let after = sorted_answer(&engine, &query);
        assert_ne!(before, after, "the update is visible");

        println!(
            "session 1: created {} ({} pages), updated {} subobjects, {} values answer the query",
            dir.display(),
            engine.pool().num_pages(),
            generated.spec.parents[0].children.len(),
            after.len(),
        );
        engine.close().expect("clean shutdown");
        after
    }; // everything dropped — "process exit"

    // --- session 2: reopen and query -------------------------------------
    {
        // No spec and no geometry: the catalog on page 0 is the source of
        // truth, and its recorded pool size wins over the builder's.
        let engine = builder().open(&dir).expect("reopen the store");
        let answer = sorted_answer(&engine, &query);
        println!(
            "session 2: reopened with a {}-page pool; {} values, {} of them the updated 4242",
            engine.pool().capacity(),
            answer.len(),
            answer.iter().filter(|&&v| v == 4242).count(),
        );
        assert_eq!(answer, expected, "same answers after the restart");
        assert_eq!(engine.pool().capacity(), params.buffer_pages);
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("done — the database survived the restart.");
}
