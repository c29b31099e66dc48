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
use complexobj::{
    value_parent_schema, CacheConfig, CorError, DatabaseSpec, ExecOptions, Query, Strategy,
};
use cor_access::Catalog;
use cor_pagestore::{BufferPool, DiskManager, MemDisk, PageBuf, PageMut, NO_PAGE, PAGE_SIZE};
use cor_relational::{Oid, Schema, Tuple, Value};
use cor_wal::{FsyncPolicy, MemLogStore, WalConfig};
use cor_workload::{
    generate, generate_matrix, generate_sequence, Engine, EngineCatalog, EngineSpec, GeneratedDb,
    Params, ENGINE_CATALOG_VERSION,
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
    EngineCatalog::decode(&cat.load().expect("engine blob")).expect("valid engine catalog")
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

/// The engine catalog blob (280 bytes, catalog v3) that the last build
/// before catalog v4 left in a closed 16-page LRU store of
/// `DatabaseSpec::tiny()`. Captured from that build; never regenerate it
/// from the current one.
const PARENT_LRU_BLOB: &[&str] = &[
    "434f52454e47494e0300000048160e3201100000000000000001000000002c010000000000000000",
    "000100000000000100000000000000000000000000000001000000000000000000000000000a0000",
    "00010000000100000004000000000000000100000001000000010000000a00000002000000020000",
    "000600000000000000010000000100000007000000030000006f6964020400000072657431000400",
    "000072657432000400000072657433000500000064756d6d7901080000006368696c6472656e0306",
    "0000006361636865640405000000030000006f696402040000007265743100040000007265743200",
    "0400000072657433000500000064756d6d7901040000000000000001000000060000000000000000",
];

fn unhex(chunks: &[&str]) -> Vec<u8> {
    let hex = chunks.concat();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// `payload` framed as a v4 catalog blob: magic, version, CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = b"CORENGIN".to_vec();
    out.extend_from_slice(&ENGINE_CATALOG_VERSION.to_le_bytes());
    out.extend_from_slice(&cor_wal::crc::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// `PARENT_LRU_BLOB` in the v4 layout: its payload without the three
/// reserved words (payload offsets 31..55), under a v4 header.
fn parent_blob_as_v4() -> Vec<u8> {
    let payload = &unhex(PARENT_LRU_BLOB)[16..];
    frame(&[&payload[..31], &payload[55..]].concat())
}

/// The v4 payload is the v3 one without its reserved words: this build
/// writes exactly that for the store the captured blob came from, and the
/// store reopens.
#[test]
fn the_v4_blob_is_the_v3_payload_without_its_reserved_words() {
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
    let pool = Arc::new(
        BufferPool::builder()
            .capacity(8)
            .disk(Box::new(disk.clone()))
            .build(),
    );
    let blob = Catalog::open(pool)
        .expect("access catalog")
        .load()
        .expect("engine blob");
    assert_eq!(blob, parent_blob_as_v4());
    let decoded = EngineCatalog::decode(&blob).expect("v4 blob decodes");
    assert_eq!((decoded.pool_pages, decoded.shards), (16, 1));
    assert_eq!(decoded.opts, ExecOptions::default());
    Engine::builder().open_on(disk, store).expect("reopen");
}

/// A page 0 as the build before catalog v4 wrote it: one named pointer
/// record `[kind 4][name_len 6]"engine"[length u32][first chain page u32]`
/// over a one-page chain holding `PARENT_LRU_BLOB`. This build does not
/// parse that page as a chain head, so `open_on` refuses the store as
/// `CatalogMissing`: no panic, no blob read through a misparsed head, and
/// page 0 left as it was.
#[test]
fn a_page_zero_from_the_parent_layout_is_catalog_missing() {
    let blob = unhex(PARENT_LRU_BLOB);
    let disk = Arc::new(MemDisk::new());
    let write = |records: &[&[u8]]| {
        let pid = disk.allocate_page().expect("allocate");
        let mut buf: PageBuf = [0; PAGE_SIZE];
        let mut p = PageMut::new(&mut buf);
        p.init();
        for rec in records {
            p.insert(rec).expect("record fits");
        }
        disk.write_page(pid, &buf).expect("write");
        buf
    };
    let mut pointer = vec![4u8, 6];
    pointer.extend_from_slice(b"engine");
    pointer.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    pointer.extend_from_slice(&1u32.to_le_bytes());
    let page0 = write(&[&pointer]);
    write(&[&[&NO_PAGE.to_le_bytes()[..], &blob].concat()]);

    let err = Engine::builder()
        .open_on(disk.clone(), Arc::new(MemLogStore::new()))
        .err()
        .expect("a parent-layout page 0 must not open");
    assert!(matches!(err, CorError::CatalogMissing), "{err}");
    let mut after: PageBuf = [0; PAGE_SIZE];
    disk.read_page(0, &mut after).expect("read");
    assert_eq!(after, page0, "a refused open wrote page 0");
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

/// Valid v4 blobs: the captured parent blob without its reserved words,
/// plus one per backend (with checkpointed cache directories) from this
/// build.
fn valid_blobs() -> &'static [Vec<u8>] {
    static BLOBS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BLOBS.get_or_init(|| {
        let mut all = vec![parent_blob_as_v4()];
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
            all.push(cat.load().expect("engine blob"));
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
    ) {
        let blob = if framed { frame(&bytes) } else { bytes };
        decode_as_outside_input(&blob);
    }

    /// Single-byte and word-sized mutations of valid blobs —
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

/// A page for the page-0 proptest: arbitrary bytes, or a slotted page of
/// records that often look like a head or a chain page (a small length or
/// `next` word first, naming a page of the store or `NO_PAGE`).
fn store_page() -> impl proptest::strategy::Strategy<Value = PageBuf> {
    let word = || prop_oneof![0u32..6, 0u32..5000, Just(NO_PAGE), any::<u32>()];
    let record = (
        word(),
        word(),
        proptest::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(a, b, tail)| [&a.to_le_bytes()[..], &b.to_le_bytes(), &tail].concat());
    let record = (record, prop_oneof![Just(8usize), 0usize..40])
        .prop_map(|(rec, cut)| rec[..cut.min(rec.len())].to_vec());
    prop_oneof![
        proptest::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1)
            .prop_map(|bytes| bytes.try_into().expect("one page")),
        proptest::collection::vec(record, 0..3).prop_map(|records| {
            let mut buf: PageBuf = [0; PAGE_SIZE];
            let mut p = PageMut::new(&mut buf);
            p.init();
            for rec in &records {
                p.insert(rec).expect("a short record fits");
            }
            buf
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// Page 0 and the chain are bytes from disk: over any store,
    /// `Catalog::open` + `load` returns a blob or `Corrupt`, never a panic,
    /// a storage error or an allocation the store's bytes cannot back.
    #[test]
    fn catalog_load_survives_an_arbitrary_page_zero(
        pages in proptest::collection::vec(store_page(), 1..6),
    ) {
        let disk = Arc::new(MemDisk::new());
        for page in &pages {
            let pid = disk.allocate_page().expect("allocate");
            disk.write_page(pid, page).expect("write");
        }
        let pool = Arc::new(BufferPool::builder().capacity(8).disk(Box::new(disk)).build());
        LARGEST.with(|l| l.set(0));
        let loaded = Catalog::open(pool).and_then(|cat| cat.load());
        let largest = LARGEST.with(Cell::get);
        prop_assert!(
            matches!(loaded, Ok(_) | Err(cor_access::CatalogError::Corrupt(_))),
            "{loaded:?}"
        );
        prop_assert!(
            largest <= ALLOC_PER_BLOB_BYTE * PAGE_SIZE * pages.len(),
            "a {}-page store asked for a {largest}-byte allocation",
            pages.len()
        );
    }
}

/// At every byte of each valid blob, the boundary values and the near neighbours of the byte there — with
/// the payload CRC fixed up so the change reaches the decoder: each
/// decodes or fails typed, within the allocation bound. (A column-name
/// byte changed into a neighbour that repeated a name used to panic in
/// `Schema::new`.)
#[test]
fn every_single_byte_change_of_a_valid_blob_decodes_or_fails_typed() {
    for seed in valid_blobs() {
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
