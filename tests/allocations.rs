//! Heap allocations a store's create makes, pinned exactly.
//!
//! A create encodes each record from its spec into one reused buffer and
//! pushes it straight into the open leaf's page image, so a record costs
//! no allocation of its own: a store four times this one's size (4,000
//! records) takes about 150 allocations per create, about 30 more than
//! this one, while the bytes grow with the store's pages.
//!
//! Counts are per thread, so only what create does on the test's own
//! thread is counted. Any change to how create allocates moves these
//! numbers; a change that adds one allocation per record moves the count
//! by the number of records. Re-pin them only for a change that means
//! to move them, and say why.
//!
//! A warm query's allocations are pinned the same way, on a durable
//! DFSCACHE engine under group commit: the log tail keeps its capacity
//! from one operation to the next, so a commit allocates nothing.
//!
//! This binary installs a `#[global_allocator]`, which is why it is a
//! test binary of its own.

use complexobj::{CacheConfig, ClusterAssignment, DatabaseSpec, Query, Strategy};
use cor_pagestore::MemDisk;
use cor_relational::Oid;
use cor_wal::{FsyncPolicy, MemLogStore, WalConfig};
use cor_workload::{generate, generate_sequence, Engine, EngineSpec, Params};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations the current thread makes and the bytes it asks
/// for (a `realloc` counts once, at its new size).
struct CountingAlloc;

thread_local! {
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note_alloc(size: usize) {
    let _ = COUNTS.try_with(|c| {
        let (n, bytes) = c.get();
        c.set((n + 1, bytes + size as u64));
    });
}

// SAFETY: every call is forwarded to `System` unchanged. The thread-local
// has a const initializer and no destructor, so counting never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
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
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` the current thread makes while running `f`.
fn counted<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = COUNTS.with(Cell::get);
    let r = f();
    let after = COUNTS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), r)
}

/// Create a store of `spec` over an in-memory disk and log, with the
/// smoke-scale point's pool, counting create's allocations alone.
fn create(p: &Params, spec: &EngineSpec) -> (u64, u64) {
    let (disk, log) = (Arc::new(MemDisk::new()), Arc::new(MemLogStore::new()));
    let builder = Engine::builder().pool_pages(p.buffer_pages);
    let (counts, engine) = counted(|| builder.create_on(disk, log, spec).unwrap());
    drop(engine);
    counts
}

/// Smoke-scale creates: 500 objects and 500 subobjects, 1,000 records.
/// Before records went from their specs straight into the load, the
/// standard create made 5,896 allocations (5.9 per record, 1,145,432
/// bytes), the clustered one 8,681 (8.7 per record, 1,318,938 bytes) and
/// the random assignment 1,011 (165,564 bytes). Now each create makes
/// about a tenth of an allocation per record, and the assignment a
/// handful in all.
#[test]
fn create_allocations_are_pinned() {
    let p = Params::scaled(0.05);
    let generated = generate(&p);
    let records = generated.spec.parents.len()
        + generated
            .spec
            .child_rels
            .iter()
            .map(Vec::len)
            .sum::<usize>();
    assert_eq!(records, 1_000);
    // One-time set-up (lazily made globals, this thread's locals) is paid
    // here, outside every counted create.
    create(&p, &EngineSpec::Standard(DatabaseSpec::tiny()));

    let standard = create(&p, &EngineSpec::Standard(generated.spec.clone()));
    let parents: Vec<(u64, &[Oid])> = generated
        .spec
        .parents
        .iter()
        .map(|o| (o.key, o.children.as_slice()))
        .collect();
    let (assign, assignment) =
        counted(|| ClusterAssignment::random(&parents, &mut StdRng::seed_from_u64(p.seed)));
    let clustered = create(
        &p,
        &EngineSpec::Clustered(generated.spec.clone(), assignment),
    );

    assert_eq!(
        (standard, clustered, assign),
        ((115, 551_166), (114, 579_109), (11, 84_860)),
        "(allocations, bytes) of the standard create, the clustered create \
         and the assignment"
    );
}

/// One warm retrieve and one warm update on a smoke-scale durable
/// DFSCACHE engine under `EveryN(8)`, the durable workload's policy: a
/// 30 % update sequence warms the pool, the cache and the log tail, then
/// the next retrieve and update of the same sequence are counted. A log
/// tail that allocated per operation would move both.
#[test]
fn warm_query_allocations_are_pinned() {
    let p = Params {
        pr_update: 0.3,
        ..Params::scaled(0.05)
    };
    let generated = generate(&p);
    let engine = Engine::builder()
        .pool_pages(p.buffer_pages)
        .cache(CacheConfig {
            capacity: p.size_cache,
            ..CacheConfig::default()
        })
        .wal_config(WalConfig {
            fsync: FsyncPolicy::EveryN(8),
            ..WalConfig::default()
        })
        .create_on(
            Arc::new(MemDisk::new()),
            Arc::new(MemLogStore::new()),
            &EngineSpec::Standard(generated.spec.clone()),
        )
        .unwrap();
    let sequence = generate_sequence(&p);
    let (warm, measured) = sequence.split_at(sequence.len() / 2);
    for q in warm {
        match q {
            Query::Retrieve(r) => drop(engine.retrieve(Strategy::DfsCache, r).unwrap()),
            Query::Update(u) => drop(engine.update(u).unwrap()),
        }
    }
    let retrieve = measured.iter().find_map(|q| match q {
        Query::Retrieve(r) => Some(r),
        Query::Update(_) => None,
    });
    let update = measured.iter().find_map(|q| match q {
        Query::Update(u) => Some(u),
        Query::Retrieve(_) => None,
    });
    let wal = engine.wal().unwrap();
    let appends = wal.stats().appends;
    let (retrieve, _) = counted(|| {
        engine
            .retrieve(Strategy::DfsCache, retrieve.unwrap())
            .unwrap()
    });
    let retrieve_records = wal.stats().appends - appends;
    let (update, _) = counted(|| engine.update(update.unwrap()).unwrap());
    let update_records = wal.stats().appends - appends - retrieve_records;
    assert_eq!(
        (retrieve_records, update_records),
        (2, 15),
        "records the counted retrieve and update log"
    );
    assert_eq!(
        (retrieve, update),
        ((60, 8396), (15, 1160)),
        "(allocations, bytes) of a warm retrieve and a warm update"
    );
}
