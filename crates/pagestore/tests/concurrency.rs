//! Multi-threaded stress tests for the buffer pool.
//!
//! The paper's experiments are single-streamed, but the pool is shared
//! state (`Arc<BufferPool>`) and the parallel experiment sweeps rely on it
//! being safe. These tests hammer one pool from many threads and check
//! that no data is lost or torn and no deadlock occurs.

use cor_pagestore::{
    BufferPool, DiskError, DiskManager, FileDisk, MemDisk, PageBuf, PageId, ReplacementPolicy,
    PAGE_SIZE,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn pool(capacity: usize, policy: ReplacementPolicy) -> Arc<BufferPool> {
    Arc::new(
        BufferPool::builder()
            .capacity(capacity)
            .policy(policy)
            .build(),
    )
}

/// Each thread owns a disjoint set of pages and rewrites/rereads them under
/// heavy eviction pressure; no thread may observe another's data or a torn
/// page.
#[test]
fn disjoint_writers_never_interfere() {
    for policy in ReplacementPolicy::ALL {
        let p = pool(8, policy);
        const THREADS: usize = 4;
        const PAGES_PER: usize = 16;
        const ROUNDS: usize = 200;

        let pids: Vec<Vec<_>> = (0..THREADS)
            .map(|_| (0..PAGES_PER).map(|_| p.allocate_page().unwrap()).collect())
            .collect();
        for row in &pids {
            for &pid in row {
                p.write(pid, |mut pg| pg.init()).unwrap();
            }
        }

        std::thread::scope(|scope| {
            for (t, my_pids) in pids.iter().enumerate() {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    let tag = (t as u32 + 1) << 16;
                    for round in 0..ROUNDS as u32 {
                        let pid = my_pids[(round as usize) % my_pids.len()];
                        p.write(pid, |mut pg| pg.set_flags(tag | round)).unwrap();
                        let read = p.read(pid, |pg| pg.flags()).unwrap();
                        assert_eq!(read, tag | round, "thread {t} lost its own write");
                    }
                });
            }
        });

        // Final state: every page holds its owner's last write.
        for (t, my_pids) in pids.iter().enumerate() {
            let tag = (t as u32 + 1) << 16;
            for (i, &pid) in my_pids.iter().enumerate() {
                let flags = p.read(pid, |pg| pg.flags()).unwrap();
                assert_eq!(flags >> 16, tag >> 16, "page {pid} owned by thread {t}");
                let _ = i;
            }
        }
    }
}

/// Concurrent readers and one writer on a shared page: readers always see
/// a consistent (pre- or post-update) value, never garbage.
#[test]
fn shared_page_reads_are_consistent() {
    let p = pool(4, ReplacementPolicy::Lru);
    let pid = p.allocate_page().unwrap();
    p.write(pid, |mut pg| {
        pg.init();
        pg.set_flags(0);
        pg.set_next(0);
    })
    .unwrap();

    std::thread::scope(|scope| {
        let writer_pool = Arc::clone(&p);
        scope.spawn(move || {
            for v in 1..=500u32 {
                writer_pool
                    .write(pid, |mut pg| {
                        // Two fields updated together under the frame lock.
                        pg.set_flags(v);
                        pg.set_next(v);
                    })
                    .unwrap();
            }
        });
        for _ in 0..3 {
            let reader_pool = Arc::clone(&p);
            scope.spawn(move || {
                for _ in 0..500 {
                    let (a, b) = reader_pool.read(pid, |pg| (pg.flags(), pg.next())).unwrap();
                    assert_eq!(a, b, "torn read: flags {a} vs next {b}");
                }
            });
        }
    });
}

/// Many threads faulting a large page set through a tiny pool: the
/// physical read count stays sane (no unbounded re-fetching storms) and
/// everything completes without deadlock.
#[test]
fn eviction_storm_terminates_and_counts_sanely() {
    let p = pool(4, ReplacementPolicy::Lru);
    let pids: Vec<_> = (0..64).map(|_| p.allocate_page().unwrap()).collect();
    for &pid in &pids {
        p.write(pid, |mut pg| pg.init()).unwrap();
    }
    p.flush_and_clear().unwrap();
    p.stats().reset();

    const THREADS: usize = 8;
    const ACCESSES: usize = 300;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let p = Arc::clone(&p);
            let pids = pids.clone();
            scope.spawn(move || {
                let mut x = t as u64 + 1;
                for _ in 0..ACCESSES {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let pid = pids[(x % pids.len() as u64) as usize];
                    p.read(pid, |pg| pg.slot_count()).unwrap();
                }
            });
        }
    });
    let reads = p.stats().reads();
    assert!(
        reads <= (THREADS * ACCESSES) as u64,
        "more physical reads than logical"
    );
    assert!(
        reads >= 60,
        "a 4-frame pool over 64 pages must fault heavily (got {reads})"
    );
}

/// A disk wrapper counting every transfer that crosses the pool boundary.
/// Each physical read/write in the pool is paired with an `IoStats`
/// record, so the two counters must agree exactly — even under threads.
struct CountingDisk {
    inner: MemDisk,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl CountingDisk {
    fn new() -> Self {
        CountingDisk {
            inner: MemDisk::new(),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }
}

impl DiskManager for CountingDisk {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId, DiskError> {
        self.inner.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
}

/// Eight threads mixing reads, writes, allocates and frees on one small
/// sharded pool. Afterwards: every allocated page is either owned by
/// exactly one thread (holding that thread's last write) or sitting on a
/// free list — no page is lost — and the pool's `IoStats` agree exactly
/// with the transfers the disk actually saw.
#[test]
fn mixed_workload_stress_loses_nothing_and_counts_exactly() {
    let disk = Arc::new(CountingDisk::new());
    let disk_reads = Arc::clone(&disk);
    let p = Arc::new(
        BufferPool::builder()
            .capacity(16)
            .shards(8)
            .disk(Box::new(ArcDisk(disk)))
            .build(),
    );

    const THREADS: usize = 8;
    const ROUNDS: usize = 400;

    // Each worker returns (its final owned pages -> last written value,
    // how many pages it allocated).
    let per_thread: Vec<(HashMap<PageId, u32>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    let tag = (t as u32 + 1) << 20;
                    let mut owned: Vec<PageId> = Vec::new();
                    let mut model: HashMap<PageId, u32> = HashMap::new();
                    let mut allocations = 0u64;
                    let mut x = 0x9E3779B9u64.wrapping_mul(t as u64 + 1);
                    let mut rng = move || {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        x >> 33
                    };
                    for round in 0..ROUNDS as u32 {
                        match rng() % 4 {
                            // Allocate a page and stamp it.
                            0 => {
                                let pid = p.allocate_page().expect("allocates");
                                allocations += 1;
                                let v = tag | round;
                                p.write(pid, |mut pg| {
                                    pg.init();
                                    pg.set_flags(v);
                                })
                                .expect("writes");
                                owned.push(pid);
                                model.insert(pid, v);
                            }
                            // Free one owned page (another thread may
                            // recycle it through its own allocate).
                            1 => {
                                if !owned.is_empty() {
                                    let i = rng() as usize % owned.len();
                                    let pid = owned.swap_remove(i);
                                    model.remove(&pid);
                                    p.free_page(pid).expect("frees");
                                }
                            }
                            // Rewrite an owned page.
                            2 => {
                                if !owned.is_empty() {
                                    let pid = owned[rng() as usize % owned.len()];
                                    let v = tag | round;
                                    p.write(pid, |mut pg| pg.set_flags(v)).expect("writes");
                                    model.insert(pid, v);
                                }
                            }
                            // Read an owned page back: must hold this
                            // thread's last write, never another's.
                            _ => {
                                if !owned.is_empty() {
                                    let pid = owned[rng() as usize % owned.len()];
                                    let got = p.read(pid, |pg| pg.flags()).expect("reads");
                                    assert_eq!(
                                        got, model[&pid],
                                        "thread {t} lost its write to page {pid}"
                                    );
                                }
                            }
                        }
                    }
                    (model, allocations)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no worker panicked"))
            .collect()
    });

    // Ownership is disjoint and every owned page holds its last write.
    let mut owned_union: HashSet<PageId> = HashSet::new();
    for (model, _) in &per_thread {
        for (&pid, &v) in model {
            assert!(owned_union.insert(pid), "page {pid} owned by two threads");
            let got = p.read(pid, |pg| pg.flags()).unwrap();
            assert_eq!(got, v, "page {pid} final contents");
        }
    }

    // No page is lost: every page the store ever handed out is owned or
    // on a free list.
    assert_eq!(
        owned_union.len() + p.free_pages(),
        p.num_pages() as usize,
        "pages leaked or double-counted"
    );

    // Allocation accounting is exact.
    let total_allocs: u64 = per_thread.iter().map(|(_, a)| a).sum();
    assert_eq!(p.stats().allocations(), total_allocs);

    // The pool's I/O counters agree exactly with the disk's view.
    assert_eq!(p.stats().reads(), disk_reads.reads.load(Ordering::Relaxed));
    assert_eq!(
        p.stats().writes(),
        disk_reads.writes.load(Ordering::Relaxed)
    );
}

/// Eight threads hammering one `FileDisk` with positioned reads — single
/// `read_page` calls and vectored `read_pages` batches — while each also
/// rewrites its own private pages. On unix both paths are lock-free
/// (`pread`/`pwrite` carry their own offset), so nothing here may tear,
/// interleave, or observe a stale length.
#[test]
fn filedisk_positioned_reads_are_lock_free_under_threads() {
    const STATIC_PAGES: u32 = 64;
    const THREADS: usize = 8;
    const PRIVATE_PER: u32 = 4;
    const ROUNDS: usize = 200;

    let path = std::env::temp_dir().join(format!(
        "cor-pread-stress-{}-{:?}.pages",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let disk = Arc::new(FileDisk::open(&path).unwrap());

    let stamp = |seed: u32| -> PageBuf {
        let mut buf = [0u8; PAGE_SIZE];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (seed as usize).wrapping_mul(31).wrapping_add(i) as u8;
        }
        buf
    };

    // A static region every thread reads, then a private region per
    // thread (only its owner writes it).
    for pid in 0..STATIC_PAGES + THREADS as u32 * PRIVATE_PER {
        let allocated = disk.allocate_page().unwrap();
        assert_eq!(allocated, pid);
        disk.write_page(pid, &stamp(pid)).unwrap();
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let disk = Arc::clone(&disk);
            let stamp = &stamp;
            scope.spawn(move || {
                let base = STATIC_PAGES + (t as u32) * PRIVATE_PER;
                let mut x = 0x9E3779B9u64.wrapping_mul(t as u64 + 1);
                let mut rng = move || {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x >> 33
                };
                for round in 0..ROUNDS as u32 {
                    // Single positioned read of a random static page.
                    let pid = (rng() % STATIC_PAGES as u64) as u32;
                    let mut buf = [0u8; PAGE_SIZE];
                    disk.read_page(pid, &mut buf).unwrap();
                    assert_eq!(buf, stamp(pid), "torn single read of page {pid}");

                    // Vectored read of a random static run (wraps cut it
                    // short): one submission, every page intact.
                    let start = (rng() % STATIC_PAGES as u64) as u32;
                    let len = (rng() % 8 + 1).min((STATIC_PAGES - start) as u64) as usize;
                    let ids: Vec<PageId> = (start..start + len as u32).collect();
                    let mut bufs = vec![[0u8; PAGE_SIZE]; len];
                    let mut refs: Vec<&mut PageBuf> = bufs.iter_mut().collect();
                    let runs = disk.read_pages(&ids, &mut refs).unwrap();
                    assert!(runs >= 1 && runs <= len);
                    for (&pid, buf) in ids.iter().zip(&bufs) {
                        assert_eq!(*buf, stamp(pid), "torn batched read of page {pid}");
                    }

                    // Rewrite one private page and read it straight back.
                    let pid = base + (rng() % PRIVATE_PER as u64) as u32;
                    let v = stamp(pid ^ (round << 8));
                    disk.write_page(pid, &v).unwrap();
                    let mut buf = [0u8; PAGE_SIZE];
                    disk.read_page(pid, &mut buf).unwrap();
                    assert_eq!(buf, v, "thread {t} lost its write to page {pid}");
                }
            });
        }
    });

    drop(disk);
    let _ = std::fs::remove_file(&path);
}

/// Adapter: `BufferPoolBuilder::disk` takes a `Box<dyn DiskManager>`, but
/// the test needs to keep a handle on the counters.
struct ArcDisk(Arc<CountingDisk>);

impl DiskManager for ArcDisk {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        self.0.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        self.0.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId, DiskError> {
        self.0.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.0.num_pages()
    }
}
