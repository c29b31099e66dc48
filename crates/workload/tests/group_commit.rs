//! Group commit at the operation boundary, end to end: a DFSCACHE engine
//! over `MemDisk` + `MemLogStore`, under every `EveryN(n)` policy with
//! `n` in 1..=16 and under `Never`.
//!
//! Records wait in the log's tail while an operation runs; the engine
//! hands the tail to the store as each retrieve or update returns and
//! syncs there under `EveryN(n)` once `n` or more appends are unsynced.
//! So after every acknowledged operation at most `n - 1` appended
//! records can be lost in a crash, and an update that logs many records
//! syncs once, at its end, not every `n` records inside it.

use complexobj::{CacheConfig, Query, Strategy, UpdateQuery};
use cor_pagestore::MemDisk;
use cor_wal::{decode_stream, FsyncPolicy, LogStore, Lsn, MemLogStore, WalConfig, NO_LSN};
use cor_workload::{generate, generate_sequence, Engine, EngineSpec, GeneratedDb, Params};
use std::sync::Arc;

fn params() -> Params {
    Params {
        parent_card: 200,
        num_top: 5,
        sequence_len: 12,
        pr_update: 0.4,
        buffer_pages: 16,
        size_cache: 20,
        ..Params::paper_default()
    }
}

fn policies() -> impl Iterator<Item = FsyncPolicy> {
    (1..=16)
        .map(FsyncPolicy::EveryN)
        .chain([FsyncPolicy::Never])
}

/// A durable DFSCACHE engine on fresh in-memory stores, with a pool of
/// `pool_pages` pages.
fn create(
    generated: &GeneratedDb,
    fsync: FsyncPolicy,
    pool_pages: usize,
) -> (Engine, Arc<MemDisk>, Arc<MemLogStore>) {
    let (disk, store) = (Arc::new(MemDisk::new()), Arc::new(MemLogStore::new()));
    let engine = Engine::builder()
        .pool_pages(pool_pages)
        .cache(CacheConfig::default())
        .wal_config(WalConfig {
            fsync,
            ..WalConfig::default()
        })
        .create_on(
            disk.clone(),
            store.clone(),
            &EngineSpec::Standard(generated.spec.clone()),
        )
        .unwrap();
    (engine, disk, store)
}

fn run(engine: &Engine, q: &Query) {
    match q {
        Query::Retrieve(r) => drop(engine.retrieve(Strategy::DfsCache, r).unwrap()),
        Query::Update(u) => drop(engine.update(u).unwrap()),
    }
}

/// The highest LSN in the store's surviving segments.
fn last_lsn(store: &MemLogStore) -> Lsn {
    store
        .read_segments()
        .unwrap()
        .iter()
        .flat_map(|s| decode_stream(s).records)
        .map(|r| r.lsn)
        .max()
        .unwrap_or(NO_LSN)
}

/// (a) Crash after the `k`-th acknowledged operation, for every `k`: the
/// log that recovery redoes reaches within `n - 1` records of the last
/// one appended. The pool holds the whole store, so no write-back syncs
/// the log on the commit's behalf. Under `Never` only recovery itself is
/// checked: the policy promises nothing before a checkpoint.
#[test]
fn a_crash_after_any_acknowledged_operation_loses_under_n_records() {
    let p = params();
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    assert!(sequence.iter().any(|q| matches!(q, Query::Update(_))));
    assert!(sequence.iter().any(|q| matches!(q, Query::Retrieve(_))));
    for fsync in policies() {
        for k in 1..=sequence.len() {
            let (engine, disk, store) = create(&generated, fsync, 4096);
            sequence[..k].iter().for_each(|q| run(&engine, q));
            let appended = engine.wal().unwrap().appended_lsn();
            drop(engine); // no close: the process ends here
            store.crash();
            let durable = last_lsn(&store);
            assert!(durable <= appended, "{fsync:?}, op {k}");
            if let FsyncPolicy::EveryN(n) = fsync {
                assert!(
                    durable + (n - 1) >= appended,
                    "{fsync:?}, op {k}: durable through {durable}, appended {appended}"
                );
            }
            cor_wal::recover(disk.as_ref(), store.as_ref())
                .unwrap_or_else(|e| panic!("{fsync:?}, op {k}: {e}"));
            Engine::builder()
                .open_on(disk, store)
                .unwrap_or_else(|e| panic!("{fsync:?}, op {k}: {e}"));
        }
    }
}

/// (b) An update that appends at least `2n` records syncs the log once
/// under `EveryN(n)`, and that sync is its commit: the store holds no
/// unsynced byte when it returns. Under `Never` it syncs nothing and its
/// records reach the store, unsynced, at the same commit. Nothing is
/// evicted, so no write-back syncs the log.
#[test]
fn an_update_syncs_once_at_its_commit() {
    let p = params();
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    let targets: Vec<_> = generated.spec.child_rels[0]
        .iter()
        .step_by(3)
        .map(|sub| sub.oid)
        .collect();
    for fsync in policies() {
        let (engine, _disk, store) = create(&generated, fsync, 4096);
        // Warm the cache, so the update invalidates units too.
        sequence.iter().for_each(|q| run(&engine, q));
        let wal = engine.wal().unwrap();
        let before = wal.stats();
        let io_before = engine.pool().stats().snapshot();
        engine
            .update(&UpdateQuery {
                targets: targets.clone(),
                new_ret1: 7777,
            })
            .unwrap();
        let after = wal.stats();
        let records = after.appends - before.appends;
        let fsyncs = after.fsyncs - before.fsyncs;
        match fsync {
            FsyncPolicy::EveryN(n) => {
                assert!(records >= 2 * u64::from(n), "{fsync:?}: {records} records");
                assert_eq!(fsyncs, 1, "{fsync:?}: {records} records");
                assert_eq!(store.unsynced_bytes(), 0, "{fsync:?}: synced at the commit");
            }
            _ => {
                assert_eq!(fsyncs, 0, "{fsync:?}");
                assert_eq!(
                    last_lsn(&store),
                    wal.appended_lsn(),
                    "{fsync:?}: handed over"
                );
            }
        }
        let io = engine.pool().stats().snapshot().since(&io_before);
        assert_eq!(io.writes, 0, "{fsync:?}: a write-back synced the log");
    }
}
