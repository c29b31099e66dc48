//! Property tests for the engine lifecycle: create → mutate →
//! checkpoint → crash → open must yield an engine whose persistent
//! identity — schemas, OID allocator high-water marks, file roots, and
//! the full encoded catalog — equals a no-crash oracle's, across all
//! four strategy backends.
//!
//! The oracle runs the identical sequence, flushes every frame, and is
//! reopened through the same `EngineBuilder::open_on` door, so both
//! sides perform identical open-time reconciliation (crash-discarded
//! free lists, one-way cache reconcile). Equality of the re-saved
//! catalog blobs is therefore equality of everything `open` persists.
//!
//! The same recording allocator also bounds the two decoders that read
//! stored bytes: the engine catalog blob and the record codec.

use complexobj::database::{child_schema, parent_schema};
use complexobj::procedural::ProcCaching;
use complexobj::{value_parent_schema, CacheConfig, DatabaseSpec, ExecOptions, Query, Strategy};
use cor_access::Catalog;
use cor_pagestore::{BufferPool, MemDisk, ReplacementPolicy};
use cor_relational::{Oid, Schema, Tuple, Value};
use cor_wal::{FsyncPolicy, MemLogStore, WalConfig};
use cor_workload::{
    generate, generate_matrix, generate_sequence, Engine, EngineCatalog, EngineSpec, GeneratedDb,
    Params, ENGINE_BLOB,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// Strategy used to drive each backend's workload and probes.
const KINDS: [(usize, Strategy); 4] = [
    (0, Strategy::DfsCache), // standard
    (1, Strategy::DfsClust), // clustered
    (2, Strategy::Dfs),      // levels
    (3, Strategy::Dfs),      // proc
];

fn spec_for(kind: usize, p: &Params, generated: &GeneratedDb) -> EngineSpec {
    match kind {
        0 => EngineSpec::Standard(generated.spec.clone()),
        1 => EngineSpec::for_strategy(p, generated, Strategy::DfsClust),
        2 => EngineSpec::Levels(vec![generated.spec.clone(), generated.spec.clone()]),
        _ => EngineSpec::Procedural(
            generate_matrix(p).proc_spec,
            ProcCaching::OutsideValues(p.size_cache),
        ),
    }
}

struct Rig {
    disk: Arc<MemDisk>,
    store: Arc<MemLogStore>,
    engine: Engine,
}

fn create_rig(spec: &EngineSpec, p: &Params) -> Rig {
    let disk = Arc::new(MemDisk::new());
    let store = Arc::new(MemLogStore::new());
    let engine = Engine::builder()
        .pool_pages(p.buffer_pages)
        .cache(CacheConfig {
            capacity: p.size_cache,
            ..CacheConfig::default()
        })
        .wal_config(WalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 32 * 1024,
        })
        .create_on(disk.clone(), store.clone(), spec)
        .expect("create on fresh store");
    Rig {
        disk,
        store,
        engine,
    }
}

fn run_ops(engine: &Engine, sequence: &[Query], strategy: Strategy, ckpt_every: usize) {
    for (i, q) in sequence.iter().enumerate() {
        match q {
            Query::Retrieve(r) => {
                engine.retrieve(strategy, r).expect("retrieve");
            }
            Query::Update(u) => {
                engine.update(u).expect("update");
            }
        }
        if (i + 1) % ckpt_every == 0 {
            engine.checkpoint().expect("checkpoint");
        }
    }
}

/// The persisted identity of an engine: the catalog blob its `open`
/// re-saved, decoded (to skip the CRC header) and re-encoded.
fn persisted_catalog(engine: &Engine) -> EngineCatalog {
    let cat = Catalog::open(Arc::clone(engine.pool())).expect("access catalog");
    let blob = cat.get_blob(ENGINE_BLOB).expect("engine blob");
    EngineCatalog::decode(&blob).expect("valid engine catalog")
}

fn run_case(kind: usize, strategy: Strategy, seed: u64, ops: usize, ckpt_every: usize) {
    let p = Params {
        parent_card: 60,
        num_top: 3,
        sequence_len: ops,
        buffer_pages: 12,
        size_cache: 10,
        pr_update: 0.5,
        seed,
        ..Params::paper_default()
    };
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    let spec = spec_for(kind, &p, &generated);

    // Oracle: same ops, every frame flushed, reopened via open_on.
    let oracle = create_rig(&spec, &p);
    run_ops(&oracle.engine, &sequence, strategy, ckpt_every);
    oracle.engine.pool().flush_all().expect("oracle flush");
    drop(oracle.engine);
    let oracle_eng = Engine::builder()
        .open_on(oracle.disk.clone(), oracle.store.clone())
        .expect("oracle reopen");

    // Crashed run: same ops, dirty frames lost, log tail survives
    // (fsync Always), recovered implicitly by open_on.
    let rig = create_rig(&spec, &p);
    run_ops(&rig.engine, &sequence, strategy, ckpt_every);
    drop(rig.engine);
    rig.store.crash();
    let recovered = Engine::builder()
        .open_on(rig.disk.clone(), rig.store.clone())
        .expect("open after crash");

    // Schema, OID counters, file roots: the OID-backend snapshots must
    // match field-for-field (encoded bytes are canonical).
    let a: Vec<_> = recovered
        .levels()
        .iter()
        .map(|db| db.save_state())
        .collect();
    let b: Vec<_> = oracle_eng
        .levels()
        .iter()
        .map(|db| db.save_state())
        .collect();
    assert_eq!(a.len(), b.len(), "level count");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.parent_schema, y.parent_schema, "parent schema");
        assert_eq!(x.child_schema, y.child_schema, "child schema");
        assert_eq!(x.parent_count, y.parent_count, "parent OID high-water");
        assert_eq!(x.child_counts, y.child_counts, "child OID high-waters");
        let enc = |s: &complexobj::SavedOidDb| {
            let mut e = complexobj::persist::Enc::default();
            s.encode(&mut e);
            e.0
        };
        assert_eq!(enc(x), enc(y), "storage roots / cache directory");
    }

    // Full persisted identity, all backends: the catalog blob each open
    // re-saved must round-trip to identical bytes.
    let ca = persisted_catalog(&recovered);
    let cb = persisted_catalog(&oracle_eng);
    assert_eq!(ca.encode(), cb.encode(), "persisted engine catalog");
    assert_eq!(ca.pool_pages, p.buffer_pages, "catalog geometry");
    assert!(!ca.clean_shutdown, "crash-recovered store is not clean");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn crash_recovery_equals_oracle(
        kind_ix in 0usize..4,
        seed in 1u64..1_000,
        ops in 4usize..20,
        ckpt_every in 1usize..8,
    ) {
        let (kind, strategy) = KINDS[kind_ix];
        run_case(kind, strategy, seed, ops, ckpt_every);
    }
}

/// The engine catalog blob (280 bytes, catalog v3) that earlier builds
/// left in a closed 16-page store of `DatabaseSpec::tiny()`: created with
/// LRU (policy tag 0) and with SIEVE (tag 3) by the build *before* the
/// FIFO/CLOCK/2Q policies were retired, and with LRU at async queue depth
/// 4 by a build that still had an async submission path (its depth-1 blob
/// is `PARENT_LRU_BLOB` byte for byte, as is the one the last such build
/// wrote), and with LRU at `batch = 16, readahead = 32` by the last build
/// that could batch keyed probes. Captured from those builds; never
/// regenerate these from the current one.
const PARENT_LRU_BLOB: &[&str] = &[
    "434f52454e47494e0300000048160e3201100000000000000001000000002c010000000000000000",
    "000100000000000100000000000000000000000000000001000000000000000000000000000a0000",
    "00010000000100000004000000000000000100000001000000010000000a00000002000000020000",
    "000600000000000000010000000100000007000000030000006f6964020400000072657431000400",
    "000072657432000400000072657433000500000064756d6d7901080000006368696c6472656e0306",
    "0000006361636865640405000000030000006f696402040000007265743100040000007265743200",
    "0400000072657433000500000064756d6d7901040000000000000001000000060000000000000000",
];
const PARENT_SIEVE_BLOB: &[&str] = &[
    "434f52454e47494e03000000cea620e301100000000000000001000000032c010000000000000000",
    "000100000000000100000000000000000000000000000001000000000000000000000000000a0000",
    "00010000000100000004000000000000000100000001000000010000000a00000002000000020000",
    "000600000000000000010000000100000007000000030000006f6964020400000072657431000400",
    "000072657432000400000072657433000500000064756d6d7901080000006368696c6472656e0306",
    "0000006361636865640405000000030000006f696402040000007265743100040000007265743200",
    "0400000072657433000500000064756d6d7901040000000000000001000000060000000000000000",
];

const PARENT_LRU_DEPTH4_BLOB: &[&str] = &[
    "434f52454e47494e03000000e96e0a3e01100000000000000001000000002c010000000000000000",
    "000100000000000100000000000000000000000000000004000000000000000000000000000a0000",
    "00010000000100000004000000000000000100000001000000010000000a00000002000000020000",
    "000600000000000000010000000100000007000000030000006f6964020400000072657431000400",
    "000072657432000400000072657433000500000064756d6d7901080000006368696c6472656e0306",
    "0000006361636865640405000000030000006f696402040000007265743100040000007265743200",
    "0400000072657433000500000064756d6d7901040000000000000001000000060000000000000000",
];

const PARENT_LRU_BATCH16_BLOB: &[&str] = &[
    "434f52454e47494e03000000e4d2a70901100000000000000001000000002c010000000000000000",
    "000100000000001000000000000000200000000000000001000000000000000000000000000a0000",
    "00010000000100000004000000000000000100000001000000010000000a00000002000000020000",
    "000600000000000000010000000100000007000000030000006f6964020400000072657431000400",
    "000072657432000400000072657433000500000064756d6d7901080000006368696c6472656e0306",
    "0000006361636865640405000000030000006f696402040000007265743100040000007265743200",
    "0400000072657433000500000064756d6d7901040000000000000001000000060000000000000000",
];

/// A small pool of its own over a closed store, and the store's page-0
/// catalog through it.
fn boot_catalog(disk: &Arc<MemDisk>) -> (Arc<BufferPool>, Catalog) {
    let pool = Arc::new(
        BufferPool::builder()
            .capacity(8)
            .disk(Box::new(disk.clone()))
            .build(),
    );
    let cat = Catalog::open(Arc::clone(&pool)).expect("access catalog");
    (pool, cat)
}

fn unhex(chunks: &[&str]) -> Vec<u8> {
    let hex = chunks.concat();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// Offset of the policy byte: 16 header bytes, then clean_shutdown (1),
/// pool_pages (8), shards (4).
const POLICY_BYTE: usize = 16 + 13;

/// Offsets of the three reserved words — the keyed-probe batch size, the
/// merge-scan `readahead` window and the async queue depth of earlier
/// builds: 16 header bytes, then payload offsets 31, 39 and 47.
const BATCH_WORD: usize = 16 + 31;
const READAHEAD_WORD: usize = 16 + 39;
const DEPTH_WORD: usize = 16 + 47;

/// `blob` with `word` at offset `at`, re-CRC'd.
fn with_word(blob: &[u8], at: usize, word: u64) -> Vec<u8> {
    let mut out = blob.to_vec();
    out[at..at + 8].copy_from_slice(&word.to_le_bytes());
    let crc = cor_wal::crc::crc32(&out[16..]);
    out[12..16].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Stores written by earlier builds still open: the old builds' blobs
/// decode to the pool settings they recorded and re-encode to themselves,
/// this build writes the same bytes for the same store (so the format did
/// not move when the policy set shrank, nor when the queue-depth, batch
/// and readahead words became reserved), and that store reopens with its
/// policy.
#[test]
fn stores_from_earlier_builds_still_open() {
    for (policy, tag, chunks) in [
        (ReplacementPolicy::Lru, 0u8, PARENT_LRU_BLOB),
        (ReplacementPolicy::Sieve, 3, PARENT_SIEVE_BLOB),
    ] {
        let parent_blob = unhex(chunks);
        assert_eq!(parent_blob[POLICY_BYTE], tag, "{policy}");
        let decoded = EngineCatalog::decode(&parent_blob).expect("old v3 blob decodes");
        assert_eq!(decoded.policy, policy);
        assert_eq!(decoded.pool_pages, 16);
        assert_eq!(decoded.shards, 1);
        assert_eq!(decoded.opts, ExecOptions::default());
        assert!(decoded.clean_shutdown);
        assert_eq!(decoded.encode(), parent_blob, "{policy}");

        let disk = Arc::new(MemDisk::new());
        let store = Arc::new(MemLogStore::new());
        Engine::builder()
            .pool_pages(16)
            .policy(policy)
            .create_on(
                disk.clone(),
                store.clone(),
                &EngineSpec::Standard(DatabaseSpec::tiny()),
            )
            .expect("create")
            .close()
            .expect("close");
        let blob = boot_catalog(&disk)
            .1
            .get_blob(ENGINE_BLOB)
            .expect("engine blob");
        assert_eq!(blob, parent_blob, "{policy}: catalog bytes moved");

        let reopened = Engine::builder().open_on(disk, store).expect("reopen");
        assert_eq!(reopened.pool().policy(), policy);
    }
}

/// What `engine` answers to `sequence`, query by query: the values and the
/// reads and writes they cost.
fn serve(engine: &Engine, strategy: Strategy, sequence: &[Query]) -> Vec<(Vec<i64>, u64, u64)> {
    let stats = engine.pool().stats().clone();
    let mut served = Vec::with_capacity(sequence.len());
    for q in sequence {
        let before = stats.snapshot();
        let values = match q {
            Query::Retrieve(r) => engine.retrieve(strategy, r).expect("retrieve").values,
            Query::Update(u) => {
                engine.update(u).expect("update");
                Vec::new()
            }
        };
        let io = stats.snapshot().since(&before);
        served.push((values, io.reads, io.writes));
    }
    served
}

/// A store created at batch 16, readahead 32 and async queue depth 4 by
/// earlier builds opens and serves exactly like a plain store: the
/// captured blobs differ from the plain one in those words alone and
/// re-save with them at 1, 0 and 1, and a reopened engine whose catalog
/// carries them returns the oracle's values for the same reads and writes
/// as one whose catalog never did, query by query.
#[test]
fn a_store_created_at_batch_16_and_depth_4_serves_like_a_plain_store() {
    let plain = unhex(PARENT_LRU_BLOB);
    let depth4 = unhex(PARENT_LRU_DEPTH4_BLOB);
    assert_eq!(with_word(&plain, DEPTH_WORD, 4), depth4);
    let decoded = EngineCatalog::decode(&depth4).expect("depth-4 blob decodes");
    assert_eq!(decoded.encode(), plain, "re-saved with the word at 1");

    let batch16 = unhex(PARENT_LRU_BATCH16_BLOB);
    let ahead32 = with_word(&plain, READAHEAD_WORD, 32);
    assert_eq!(with_word(&ahead32, BATCH_WORD, 16), batch16);
    let decoded = EngineCatalog::decode(&batch16).expect("batch-16 blob decodes");
    assert_eq!(decoded.opts, ExecOptions::default());
    assert_eq!(
        decoded.encode(),
        plain,
        "re-saved with the words at 1 and 0"
    );

    // The captured blob, put back on the store it was captured from.
    let (disk, store) = (Arc::new(MemDisk::new()), Arc::new(MemLogStore::new()));
    let tiny = EngineSpec::Standard(DatabaseSpec::tiny());
    Engine::builder()
        .pool_pages(16)
        .create_on(disk.clone(), store.clone(), &tiny)
        .expect("create")
        .close()
        .expect("close");
    let (boot, cat) = boot_catalog(&disk);
    let blob = cat.get_blob(ENGINE_BLOB).expect("engine blob");
    assert_eq!(blob, plain, "this build writes the plain words");
    cat.save_blob(ENGINE_BLOB, &batch16).expect("re-save");
    boot.flush_all().expect("flush");
    drop((cat, boot));
    let reopened = Engine::builder().open_on(disk, store).expect("reopen");
    assert_eq!(reopened.options(), &ExecOptions::default());
    let oracle = Engine::builder()
        .pool_pages(16)
        .build(&tiny)
        .expect("oracle");
    let q = complexobj::RetrieveQuery {
        lo: 0,
        hi: 5,
        attr: complexobj::RetAttr::Ret1,
    };
    for strategy in [Strategy::Dfs, Strategy::Bfs] {
        assert_eq!(
            reopened.retrieve(strategy, &q).expect("retrieve").values,
            oracle.retrieve(strategy, &q).expect("retrieve").values,
            "{strategy}"
        );
    }

    let p = Params {
        parent_card: 60,
        num_top: 6,
        sequence_len: 24,
        buffer_pages: 12,
        size_cache: 10,
        pr_update: 0.3,
        ..Params::paper_default()
    };
    let generated = generate(&p);
    let sequence = generate_sequence(&p);
    for strategy in [Strategy::Bfs, Strategy::DfsClust, Strategy::DfsCache] {
        let spec = EngineSpec::for_strategy(&p, &generated, strategy);
        let reopened_with = |batch: u64, readahead: u64, depth: u64| {
            let Rig {
                disk,
                store,
                engine,
            } = create_rig(&spec, &p);
            engine.close().expect("close");
            // What the earlier builds would have left there.
            let (boot, cat) = boot_catalog(&disk);
            let blob = cat.get_blob(ENGINE_BLOB).expect("engine blob");
            let blob = with_word(&blob, BATCH_WORD, batch);
            let blob = with_word(&blob, READAHEAD_WORD, readahead);
            let blob = with_word(&blob, DEPTH_WORD, depth);
            cat.save_blob(ENGINE_BLOB, &blob).expect("re-save");
            boot.flush_all().expect("flush");
            drop((cat, boot));

            let engine = Engine::builder().open_on(disk, store).expect("reopen");
            assert_eq!(engine.options(), &ExecOptions::default());
            serve(&engine, strategy, &sequence)
        };
        let old = reopened_with(16, 32, 4);
        assert_eq!(old, reopened_with(1, 0, 1), "{strategy}");

        let oracle = Engine::builder()
            .pool_pages(p.buffer_pages)
            .cache(CacheConfig {
                capacity: p.size_cache,
                ..CacheConfig::default()
            })
            .build(&spec)
            .expect("oracle");
        let answers = |served: Vec<(Vec<i64>, u64, u64)>| -> Vec<Vec<i64>> {
            served.into_iter().map(|(values, ..)| values).collect()
        };
        assert_eq!(
            answers(old),
            answers(serve(&oracle, strategy, &sequence)),
            "{strategy}"
        );
    }
}

/// A kind-0 (`BTree`) page-0 record as the typed file catalog of earlier
/// builds wrote it: the entry `"person"` for a 300-entry tree with 10-byte
/// keys (root 3, first leaf 1, height 2, 21 leaves). Captured from the
/// last build that had that API; nothing writes kinds 0–3 any more.
const PARENT_BTREE_RECORD: &str =
    "0006706572736f6e0a0003000000010000002c010000000000000200000015000000";

/// Record kinds 0–3 are retired, not reused: a page 0 that still carries
/// one opens, its blob reads byte for byte, re-saving the blob leaves the
/// foreign record in place, and the engine reopens over it.
#[test]
fn a_page_zero_with_a_retired_typed_record_still_opens() {
    let disk = Arc::new(MemDisk::new());
    let store = Arc::new(MemLogStore::new());
    Engine::builder()
        .pool_pages(16)
        .create_on(
            disk.clone(),
            store.clone(),
            &EngineSpec::Standard(DatabaseSpec::tiny()),
        )
        .expect("create")
        .close()
        .expect("close");

    let typed = unhex(&[PARENT_BTREE_RECORD]);
    let holds_typed = |pool: &BufferPool| {
        pool.read(0, |p| p.records().any(|(_, r)| r == typed))
            .expect("page 0 reads")
    };
    let pool = Arc::new(
        BufferPool::builder()
            .capacity(8)
            .disk(Box::new(disk.clone()))
            .build(),
    );
    pool.write(0, |mut p| p.insert(&typed).map(|_| ()))
        .expect("page 0 writes")
        .expect("page 0 has room");

    let cat = Catalog::open(Arc::clone(&pool)).expect("access catalog");
    let blob = cat.get_blob(ENGINE_BLOB).expect("engine blob");
    assert_eq!(blob, unhex(PARENT_LRU_BLOB));
    cat.save_blob(ENGINE_BLOB, &blob).expect("re-save");
    assert!(holds_typed(&pool), "save_blob moved a foreign record");
    assert_eq!(cat.get_blob(ENGINE_BLOB).expect("engine blob"), blob);
    pool.flush_all().expect("flush");
    drop((cat, pool));

    let reopened = Engine::builder().open_on(disk, store).expect("reopen");
    assert!(
        holds_typed(reopened.pool()),
        "open dropped a foreign record"
    );
}

/// Tracks the largest single allocation the current thread has asked for,
/// so the decoder tests can check that no stored length sizes an
/// allocation the blob cannot back.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded to `System` unchanged. The thread-local
// has a const initializer and no destructor, so noting a size never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Heap bytes a decode may ask for in one allocation per byte of blob. A
/// decoded element costs at most a few hundred bytes in memory and at
/// least one byte of blob, so any honest decode fits; a count the blob
/// cannot back asks for gigabytes.
const ALLOC_PER_BLOB_BYTE: usize = 512;

/// Decode `blob` as outside input: it must come back `Ok` or as a typed
/// `CorError` (a panic fails the test), without any single allocation
/// larger than the blob can justify. An accepted blob re-encodes to a
/// canonical blob that decodes to itself.
fn decode_as_outside_input(blob: &[u8]) {
    LARGEST.with(|l| l.set(0));
    let decoded = EngineCatalog::decode(blob);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= ALLOC_PER_BLOB_BYTE * blob.len().max(64),
        "a {}-byte blob asked for a {largest}-byte allocation",
        blob.len()
    );
    if let Ok(cat) = decoded {
        let canonical = cat.encode();
        let again = EngineCatalog::decode(&canonical).expect("a re-encoded catalog decodes");
        assert_eq!(again.encode(), canonical);
    }
}

/// `payload` framed as a catalog blob of `version`: magic, version, CRC.
fn frame(payload: &[u8], version: u32) -> Vec<u8> {
    let mut out = b"CORENGIN".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&cor_wal::crc::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Valid blobs of every layout version: the captured v3 blobs, plus one
/// per backend (with checkpointed cache directories) from this build,
/// each also restamped as v2 and cut down to v1.
fn valid_blobs() -> &'static [Vec<u8>] {
    static BLOBS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BLOBS.get_or_init(|| {
        let mut v3: Vec<Vec<u8>> = [
            PARENT_LRU_BLOB,
            PARENT_SIEVE_BLOB,
            PARENT_LRU_DEPTH4_BLOB,
            PARENT_LRU_BATCH16_BLOB,
        ]
        .into_iter()
        .map(unhex)
        .collect();
        let p = Params {
            parent_card: 40,
            num_top: 4,
            sequence_len: 12,
            buffer_pages: 12,
            size_cache: 6,
            pr_update: 0.3,
            ..Params::paper_default()
        };
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        for (kind, strategy) in KINDS {
            let rig = create_rig(&spec_for(kind, &p, &generated), &p);
            run_ops(&rig.engine, &sequence, strategy, 4);
            let cat = Catalog::open(Arc::clone(rig.engine.pool())).expect("access catalog");
            v3.push(cat.get_blob(ENGINE_BLOB).expect("engine blob"));
        }
        let mut all = Vec::new();
        for blob in v3 {
            let payload = &blob[16..];
            let mut v1 = payload.to_vec();
            v1.drain(47..55);
            all.push(frame(&v1, 1));
            all.push(frame(payload, 2));
            all.push(blob);
        }
        for blob in &all {
            EngineCatalog::decode(blob).expect("every seed blob is valid");
        }
        all
    })
}

/// One mutation of a valid blob: a byte, or a little-endian `u32`/`u64`
/// word, written at a position (clipped to the blob).
#[derive(Debug, Clone)]
enum Mutation {
    Byte(u8),
    Word32(u32),
    Word64(u64),
}

fn mutation() -> impl proptest::strategy::Strategy<Value = Mutation> {
    let word = || {
        prop_oneof![
            Just(0u64),
            Just(1),
            Just(u32::MAX as u64),
            Just(u64::MAX),
            any::<u64>()
        ]
    };
    prop_oneof![
        any::<u8>().prop_map(Mutation::Byte),
        word().prop_map(|w| Mutation::Word32(w as u32)),
        word().prop_map(Mutation::Word64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 1024,
        ..ProptestConfig::default()
    })]

    /// Arbitrary bytes, bare or framed under a valid header and CRC so
    /// they reach the payload decoder, never panic the catalog decoder.
    #[test]
    fn catalog_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        framed in any::<bool>(),
        version in 1u32..4,
    ) {
        let blob = if framed { frame(&bytes, version) } else { bytes };
        decode_as_outside_input(&blob);
    }

    /// Single-byte and word-sized mutations of valid v1/v2/v3 blobs —
    /// re-CRC'd or not — never panic the catalog decoder.
    #[test]
    fn catalog_decode_survives_mutated_blobs(
        which in any::<usize>(),
        at in any::<usize>(),
        change in mutation(),
        recrc in any::<bool>(),
    ) {
        let seeds = valid_blobs();
        let mut blob = seeds[which % seeds.len()].clone();
        let bytes = match change {
            Mutation::Byte(b) => vec![b],
            Mutation::Word32(w) => w.to_le_bytes().to_vec(),
            Mutation::Word64(w) => w.to_le_bytes().to_vec(),
        };
        let at = at % (blob.len() - bytes.len() + 1);
        blob[at..at + bytes.len()].copy_from_slice(&bytes);
        if recrc {
            let crc = cor_wal::crc::crc32(&blob[16..]);
            blob[12..16].copy_from_slice(&crc.to_le_bytes());
        }
        decode_as_outside_input(&blob);
    }
}

/// At every byte of each distinct valid blob, in the v1 and v3 layouts,
/// the boundary values and the near neighbours of the byte there — with
/// the payload CRC fixed up so the change reaches the decoder: each
/// decodes or fails typed, within the allocation bound. (A column-name
/// byte changed into a neighbour that repeated a name used to panic in
/// `Schema::new`.)
#[test]
fn every_single_byte_change_of_a_valid_blob_decodes_or_fails_typed() {
    // `valid_blobs` holds (v1, v2, v3) triples; v2 differs from v3 only in
    // the header, which the v3 sweep covers. The first three captured
    // triples differ from the fourth only in option words.
    for triple in valid_blobs().chunks(3).skip(3) {
        for seed in [&triple[0], &triple[2]] {
            for at in 0..seed.len() {
                let v = seed[at];
                let near = [1, 2, 3].map(|d| [v.wrapping_add(d), v.wrapping_sub(d)]);
                for b in [0, 1, 0x7F, 0x80, 0xFF]
                    .into_iter()
                    .chain(near.into_iter().flatten())
                {
                    let mut blob = seed.clone();
                    blob[at] = b;
                    if at >= 16 {
                        let crc = cor_wal::crc::crc32(&blob[16..]);
                        blob[12..16].copy_from_slice(&crc.to_le_bytes());
                    }
                    decode_as_outside_input(&blob);
                }
            }
        }
    }
}

/// Decode `record` under `schema` as outside input: it must come back `Ok`
/// or as a typed `CodecError` (a panic fails the test), within the same
/// allocation bound as a catalog blob. An accepted record re-encodes to
/// the bytes the decoder consumed.
fn decode_record_as_outside_input(schema: &Schema, record: &[u8]) {
    LARGEST.with(|l| l.set(0));
    let decoded = cor_access::decode(schema, record);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= ALLOC_PER_BLOB_BYTE * record.len().max(64),
        "a {}-byte record asked for a {largest}-byte allocation",
        record.len()
    );
    if let Ok(tuple) = decoded {
        let canonical = cor_access::encode(schema, &tuple).expect("a decoded tuple encodes");
        assert!(record.starts_with(&canonical), "re-encoding moved bytes");
    }
}

/// The three stored-record schemas.
fn record_schemas() -> [Schema; 3] {
    [parent_schema(), child_schema(), value_parent_schema()]
}

/// A valid record of `record_schemas()[which]`, with `n` children (OID
/// parents) or `n` member bytes (value-based parents).
fn valid_record(which: usize, n: usize) -> Vec<u8> {
    let oid = |k| Value::Oid(Oid::new(10, k));
    let head = |k| vec![oid(k), Value::Int(-3), Value::Int(7), Value::Int(i64::MAX)];
    let mut values = head(42);
    values.push(Value::Str("dummy".into()));
    match which {
        0 => {
            values.push(Value::OidList(
                (0..n as u64).map(|k| Oid::new(11, k)).collect(),
            ));
            values.push(Value::Bytes(vec![0xAB; n]));
        }
        1 => {}
        _ => values.push(Value::Bytes((0..n as u8).collect())),
    }
    cor_access::encode(&record_schemas()[which], &Tuple::new(values)).expect("valid tuple")
}

/// A parent record cut right after a `0xFFFF` children count: the count
/// claims 65,535 OIDs the record does not hold, and must not size the
/// list it decodes into.
#[test]
fn a_corrupt_children_count_does_not_size_an_allocation() {
    let whole = valid_record(0, 0);
    // oid, three ints, then the dummy string's length and bytes.
    let count_at = 10 + 3 * 8 + 2 + "dummy".len();
    assert_eq!(&whole[count_at..count_at + 2], &[0, 0], "empty children");
    let mut cut = whole[..count_at].to_vec();
    cut.extend_from_slice(&[0xFF, 0xFF]);
    assert_eq!(
        cor_access::decode(&parent_schema(), &cut),
        Err(cor_access::CodecError::Truncated)
    );
    decode_record_as_outside_input(&parent_schema(), &cut);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 1024,
        ..ProptestConfig::default()
    })]

    /// Arbitrary bytes never panic the record decoder, under any of the
    /// stored schemas.
    #[test]
    fn record_decode_survives_arbitrary_bytes(
        which in 0usize..3,
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        decode_record_as_outside_input(&record_schemas()[which], &bytes);
    }

    /// Byte and `u16` mutations of valid records (a `u16` lands on a
    /// length or count as often as on data) never panic the record
    /// decoder.
    #[test]
    fn record_decode_survives_mutated_records(
        which in 0usize..3,
        n in 0usize..8,
        at in any::<usize>(),
        change in prop_oneof![
            any::<u8>().prop_map(|b| vec![b]),
            prop_oneof![Just(0u16), Just(1), Just(u16::MAX), any::<u16>()]
                .prop_map(|w| w.to_le_bytes().to_vec()),
        ],
    ) {
        let mut record = valid_record(which, n);
        let at = at % (record.len() - change.len() + 1);
        record[at..at + change.len()].copy_from_slice(&change);
        decode_record_as_outside_input(&record_schemas()[which], &record);
    }
}
