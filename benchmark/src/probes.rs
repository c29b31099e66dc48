//! Layer probes: a fixed number of direct calls into each layer's public
//! functions, timed in five batches, median reported. They give the unit
//! costs the ledger multiplies workload counts by, and a base for any
//! later change to one layer.

use crate::metrics::Values;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workload::ScratchDir;
use complexobj::database::child_schema;
use cor_access::{decode, encode, external_sort, merge_join, BTreeFile, HashFile, HeapFile};
use cor_access::{DEFAULT_FILL, DEFAULT_WORK_MEM};
use cor_pagestore::{
    AioConfig, AioEngine, BufferPool, DiskManager, Durability, FileDisk, IoStats, MemDisk, PageBuf,
    PageId, WalHook, PAGE_SIZE,
};
use cor_relational::{Oid, Tuple, Value};
use cor_wal::{FileLogStore, FsyncPolicy, LogStore, MemLogStore, Wal, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// Pages in the probe stores: the paper database's store is ~1,900.
const STORE_PAGES: u32 = 2000;
/// Keys in the probe B-tree: |ChildRel| of the paper database.
const TREE_KEYS: u64 = 10_000;

type Error = Box<dyn std::error::Error>;

/// One timed batch: the span it covers, the time spent inside the calls
/// under test (less than the span when the batch interleaves untimed
/// preparation), and how many units of work that time bought.
struct Sample {
    start: Instant,
    end: Instant,
    busy: Duration,
    units: u64,
}

/// Time one contiguous section that reports its own unit count.
fn timed(work: impl FnOnce() -> Result<u64, Error>) -> Result<Sample, Error> {
    let start = Instant::now();
    let units = work()?;
    let end = Instant::now();
    Ok(Sample {
        start,
        end,
        busy: end - start,
        units,
    })
}

/// Times batches under one `probe.<layer>` span and files the results.
struct Layer<'a> {
    tracer: &'a mut Tracer,
    values: &'a mut Values,
    span: SpanId,
}

impl<'a> Layer<'a> {
    fn open(tracer: &'a mut Tracer, values: &'a mut Values, name: &'static str) -> Layer<'a> {
        let span = tracer.open(0, name);
        Layer {
            tracer,
            values,
            span,
        }
    }

    /// Run `batch` [`BATCHES`] times; each run prepares whatever it needs
    /// untimed and returns one [`Sample`]. Returns the median ns per unit.
    fn time(
        &mut self,
        name: &'static str,
        mut batch: impl FnMut() -> Result<Sample, Error>,
    ) -> Result<f64, Error> {
        let mut per_unit = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let s = batch()?;
            self.tracer.record(self.span, name, s.start, s.end);
            per_unit.push(s.busy.as_nanos() as f64 / s.units as f64);
        }
        Ok(median(&per_unit))
    }

    /// [`time`](Self::time) a metric whose unit is ns and set it.
    fn measure(
        &mut self,
        name: &'static str,
        batch: impl FnMut() -> Result<Sample, Error>,
    ) -> Result<f64, Error> {
        let ns = self.time(name, batch)?;
        self.values.set(name, ns);
        Ok(ns)
    }

    fn close(self) {
        self.tracer.close(self.span);
    }
}

fn random_pids(rng: &mut StdRng, n: usize, below: u32) -> Vec<PageId> {
    (0..n).map(|_| rng.random_range(0..below)).collect()
}

fn fill_store(disk: &dyn DiskManager, pages: u32) -> Result<(), Error> {
    let mut buf: PageBuf = [0u8; PAGE_SIZE];
    for i in 0..pages {
        let pid = disk.allocate_page()?;
        buf[64] = i as u8;
        disk.write_page(pid, &buf)?;
    }
    Ok(())
}

/// A pool of `frames` frames over a `MemDisk` holding [`STORE_PAGES`]
/// zeroed pages, none of them resident.
fn pool_over_store(
    frames: usize,
    shards: usize,
    wal: Option<Arc<Wal>>,
) -> Result<Arc<BufferPool>, Error> {
    let mut b = BufferPool::builder()
        .capacity(frames)
        .shards(shards)
        .telemetry(true)
        .disk(Box::new(MemDisk::new()));
    if let Some(wal) = wal {
        b = b.wal(wal);
    }
    let pool = Arc::new(b.build());
    for _ in 0..STORE_PAGES {
        pool.allocate_page()?;
    }
    pool.flush_and_clear()?;
    Ok(pool)
}

fn pool_probes(pool: &BufferPool) -> u64 {
    pool.telemetry()
        .expect("probe pools are built with telemetry")
        .iter()
        .map(|s| s.hits + s.misses)
        .sum()
}

fn child_record(k: u64, rng: &mut StdRng) -> Vec<u8> {
    let dummy: String = (0..64)
        .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
        .collect();
    let tuple = Tuple::new(vec![
        Value::Oid(Oid::new(10, k)),
        Value::Int(rng.random_range(-1000..=1000)),
        Value::Int(rng.random_range(-1000..=1000)),
        Value::Int(rng.random_range(-1000..=1000)),
        Value::Str(dummy),
    ]);
    encode(&child_schema(), &tuple).expect("a ChildRel tuple encodes")
}

fn oid_key(k: u64) -> Vec<u8> {
    Oid::new(10, k).to_key_bytes().to_vec()
}

fn wal(store: Arc<dyn LogStore>, fsync: FsyncPolicy) -> Arc<Wal> {
    #[allow(clippy::needless_update)] // option structs stay source-compatible if a field is added
    let config = WalConfig {
        fsync,
        segment_bytes: 1 << 20,
        ..Default::default()
    };
    Arc::new(Wal::new(store, config))
}

/// Log each of `pages` once. A page's first write after a flush or a
/// checkpoint is a full image; this gets those out of the way so the
/// appends that follow are deltas.
fn log_images(wal: &Wal, pages: u32, page: &PageBuf) -> Result<(), Error> {
    for pid in 0..pages {
        wal.log_page_write(pid, page, page)?;
    }
    Ok(())
}

/// Append `n` delta records. Each flips one byte near the page header and
/// one near its end, the way a heap append touches the slot directory
/// and the record area, so the logged byte range is most of the page:
/// the record size the workloads' logs are made of.
fn log_deltas(wal: &Wal, n: usize, pages: u32, before: &PageBuf) -> Result<u64, Error> {
    let mut after = *before;
    for i in 0..n {
        let (lo, hi) = (24 + (i % 64), PAGE_SIZE - 1 - (i % 64));
        after[lo] ^= 0xFF;
        after[hi] ^= 0xFF;
        black_box(wal.log_page_write(i as u32 % pages, before, &after)?);
        after[lo] ^= 0xFF;
        after[hi] ^= 0xFF;
    }
    Ok(n as u64)
}

/// Time only `sync`, `rounds` times, each after `dirty` has made
/// something to flush.
fn time_syncs(
    rounds: u64,
    mut dirty: impl FnMut(u64) -> Result<(), Error>,
    mut sync: impl FnMut() -> Result<(), Error>,
) -> Result<Sample, Error> {
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    for round in 0..rounds {
        dirty(round)?;
        let t0 = Instant::now();
        sync()?;
        busy += t0.elapsed();
    }
    Ok(Sample {
        start,
        end: Instant::now(),
        busy,
        units: rounds,
    })
}

/// Run every probe and set its metric in `values`. File-backed probes
/// work in a scratch directory, removed before this returns.
/// Returns the serialized size of the records the WAL append probes
/// write: the ledger charges the log per byte.
pub fn run(seed: u64, tracer: &mut Tracer, values: &mut Values) -> Result<f64, Error> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x009E_0BE5);
    let scratch = ScratchDir::new("probes")?;
    let mut buf: PageBuf = [0u8; PAGE_SIZE];

    // ---- pagestore::disk -------------------------------------------------
    let mut layer = Layer::open(tracer, values, "probe.disk");
    let mem = MemDisk::new();
    fill_store(&mem, STORE_PAGES)?;
    let pids = random_pids(&mut rng, 20_000, STORE_PAGES);
    layer.measure("disk.mem_read_ns", || {
        timed(|| {
            for &pid in &pids {
                mem.read_page(pid, &mut buf)?;
                black_box(buf[64]);
            }
            Ok(pids.len() as u64)
        })
    })?;
    layer.measure("disk.mem_write_ns", || {
        timed(|| {
            for &pid in &pids {
                mem.write_page(pid, black_box(&buf))?;
            }
            Ok(pids.len() as u64)
        })
    })?;
    drop(mem);
    let file: Arc<dyn DiskManager> = Arc::new(FileDisk::open_with(
        &scratch.path().join("probe.pages"),
        Durability::Fsync,
    )?);
    fill_store(file.as_ref(), STORE_PAGES)?;
    let file_pids = &pids[..10_000];
    layer.measure("disk.file_read_ns", || {
        timed(|| {
            for &pid in file_pids {
                file.read_page(pid, &mut buf)?;
                black_box(buf[64]);
            }
            Ok(file_pids.len() as u64)
        })
    })?;
    layer.measure("disk.file_write_ns", || {
        timed(|| {
            for &pid in file_pids {
                file.write_page(pid, black_box(&buf))?;
            }
            Ok(file_pids.len() as u64)
        })
    })?;
    file.sync()?;
    // Eight dirty pages per sync: the group size of the durable
    // workload's flush policy.
    let file_sync_ns = layer.time("disk.file_sync_us", || {
        time_syncs(
            20,
            |round| {
                for k in 0..8 {
                    file.write_page(pids[round as usize * 8 + k], &buf)?;
                }
                Ok(())
            },
            || Ok(file.sync()?),
        )
    })?;
    layer.values.set("disk.file_sync_us", file_sync_ns / 1e3);
    layer.close();

    // ---- pagestore::aio --------------------------------------------------
    let mut layer = Layer::open(tracer, values, "probe.aio");
    let aio = AioEngine::new(Arc::clone(&file), IoStats::new(), AioConfig::with_depth(4));
    // The resolved backend is printed beside the number as a label.
    let backend = format!("backend {}", aio.backend().name());
    // Four 16-page runs, far enough apart not to coalesce.
    let batch_ids: Vec<PageId> = (0..4u32).flat_map(|r| r * 400..r * 400 + 16).collect();
    let aio_ns = layer.time("aio.submit_wait_ns_per_page", || {
        timed(|| {
            const SUBMISSIONS: usize = 200;
            for _ in 0..SUBMISSIONS {
                black_box(aio.submit(&batch_ids).wait_pages()?);
            }
            Ok((SUBMISSIONS * batch_ids.len()) as u64)
        })
    })?;
    layer
        .values
        .set_with("aio.submit_wait_ns_per_page", aio_ns, backend);
    drop(aio);
    drop(file);
    layer.close();

    // ---- pagestore::buffer / policy ---------------------------------------
    let mut layer = Layer::open(tracer, values, "probe.pool");
    let resident = |shards| -> Result<Arc<BufferPool>, Error> {
        let pool = pool_over_store(STORE_PAGES as usize + 48, shards, None)?;
        for pid in 0..STORE_PAGES {
            pool.read(pid, |p| p.bytes()[64])?;
        }
        Ok(pool)
    };
    let hot = resident(1)?;
    let hit_pids = random_pids(&mut rng, 200_000, STORE_PAGES);
    let pin_hit_ns = layer.measure("pool.pin_hit_ns", || {
        timed(|| {
            for &pid in &hit_pids {
                black_box(hot.read(pid, |p| p.bytes()[64])?);
            }
            Ok(hit_pids.len() as u64)
        })
    })?;
    drop(hot);
    // 100 frames, LRU, pages visited in a cycle 20x the pool: every pin
    // misses and evicts a clean page.
    let cold = pool_over_store(100, 1, None)?;
    layer.measure("pool.pin_miss_ns", || {
        timed(|| {
            const PINS: u32 = 20_000;
            for i in 0..PINS {
                black_box(cold.read(i % STORE_PAGES, |p| p.bytes()[64])?);
            }
            Ok(PINS as u64)
        })
    })?;
    drop(cold);
    // The same cycle, writing: every pin misses and its victim is dirty,
    // so the victim goes back to the store through the WAL hook first.
    let log = wal(Arc::new(MemLogStore::new()), FsyncPolicy::Never);
    let dirty = pool_over_store(100, 1, Some(Arc::clone(&log)))?;
    layer.measure("pool.dirty_evict_ns", || {
        const PINS: u32 = 5_000;
        for pid in 0..100 {
            dirty.write(pid, |mut p| p.bytes_mut()[64] ^= 1)?;
        }
        let sample = timed(|| {
            for i in 100..100 + PINS {
                dirty.write(i % STORE_PAGES, |mut p| p.bytes_mut()[64] ^= 1)?;
            }
            Ok(PINS as u64)
        })?;
        // Let the log drop what the write-backs made redundant.
        dirty.flush_and_clear()?;
        log.checkpoint(|| dirty.dirty_page_table())?;
        Ok(sample)
    })?;
    drop(dirty);
    let shared = resident(2)?;
    layer.measure("pool.pin_hit_ns_t2", || {
        // Two threads each read the whole list; the section lasts as long
        // as the slower one.
        timed(|| {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| -> Result<(), cor_pagestore::BufferError> {
                            for &pid in &hit_pids {
                                black_box(shared.read(pid, |p| p.bytes()[64])?);
                            }
                            Ok(())
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().expect("probe thread panicked")?;
                }
                Ok(hit_pids.len() as u64)
            })
        })
    })?;
    drop(shared);
    layer.close();

    // ---- access ----------------------------------------------------------
    let mut layer = Layer::open(tracer, values, "probe.access");
    let records: Vec<Vec<u8>> = (0..TREE_KEYS).map(|k| child_record(k, &mut rng)).collect();
    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..TREE_KEYS)
        .map(|k| (oid_key(k), records[k as usize].clone()))
        .collect();
    // Wide enough that nothing built below is ever evicted.
    let wide_pool = || {
        Arc::new(
            BufferPool::builder()
                .capacity(4096)
                .telemetry(true)
                .disk(Box::new(MemDisk::new()))
                .build(),
        )
    };
    let load = |input: Vec<(Vec<u8>, Vec<u8>)>| {
        BTreeFile::bulk_load(wide_pool(), cor_relational::OID_BYTES, input, DEFAULT_FILL)
    };
    layer.measure("btree.bulk_load_ns_per_rec", || {
        let input = entries.clone();
        timed(|| {
            black_box(load(input)?);
            Ok(TREE_KEYS)
        })
    })?;
    let tree = load(entries.clone())?;
    let lookup_keys: Vec<Vec<u8>> = (0..20_000)
        .map(|_| oid_key(rng.random_range(0..TREE_KEYS)))
        .collect();
    let pins_before = pool_probes(tree.pool());
    let btree_get_ns = layer.measure("btree.get_ns", || {
        timed(|| {
            for key in &lookup_keys {
                black_box(tree.get(key)?);
            }
            Ok(lookup_keys.len() as u64)
        })
    })?;
    let pages_per_lookup =
        (pool_probes(tree.pool()) - pins_before) as f64 / (BATCHES * lookup_keys.len()) as f64;
    layer
        .values
        .set("btree.get_pages_per_lookup", pages_per_lookup);
    // What a lookup costs beyond pinning the pages it visits.
    layer.values.set(
        "btree.get_self_ns",
        btree_get_ns - pages_per_lookup * pin_hit_ns,
    );
    layer.measure("btree.range_ns_per_rec", || {
        timed(|| Ok(black_box(tree.scan_all().count()) as u64))
    })?;
    layer.measure("btree.update_ns", || {
        timed(|| {
            const UPDATES: usize = 10_000;
            for key in &lookup_keys[..UPDATES] {
                let k = Oid::from_key_bytes(key).expect("made by oid_key").key as usize;
                black_box(tree.update(key, &records[(k + 1) % records.len()])?);
            }
            Ok(UPDATES as u64)
        })
    })?;

    const HEAP_RECORDS: u64 = 20_000;
    let fill_heap = |file: &HeapFile| -> Result<u64, Error> {
        for k in 0..HEAP_RECORDS {
            black_box(file.append(&Oid::new(10, k).to_key_bytes())?);
        }
        Ok(HEAP_RECORDS)
    };
    layer.measure("heap.append_ns", || {
        let file = HeapFile::create(wide_pool())?;
        timed(|| fill_heap(&file))
    })?;
    let heap = HeapFile::create(wide_pool())?;
    fill_heap(&heap)?;
    layer.measure("heap.scan_ns_per_rec", || {
        timed(|| Ok(black_box(heap.scan().count()) as u64))
    })?;
    drop(heap);

    // The temporary of one scan_bfs query, NumTop 200 x SizeUnit 5 OIDs,
    // fits in work memory.
    let sort_pool = wide_pool();
    let temp: Vec<Vec<u8>> = (0..1000)
        .map(|_| oid_key(rng.random_range(0..TREE_KEYS)))
        .collect();
    layer.measure("sort.mem_ns_per_rec", || {
        timed(|| {
            const SORTS: usize = 20;
            for _ in 0..SORTS {
                let sorted = external_sort(
                    &sort_pool,
                    temp.clone().into_iter(),
                    DEFAULT_WORK_MEM,
                    false,
                )?;
                black_box(sorted.count());
            }
            Ok((SORTS * temp.len()) as u64)
        })
    })?;
    // Twenty times that does not, so runs spill through the pool. A spill
    // allocates pages between two pulls of the input, which is how runs
    // are counted from outside the sorter.
    let big: Vec<Vec<u8>> = (0..20_000)
        .map(|_| oid_key(rng.random_range(0..TREE_KEYS)))
        .collect();
    let mut spill_episodes = 0u64;
    layer.measure("sort.spill_ns_per_rec", || {
        let pool = wide_pool();
        let stats = Arc::clone(pool.stats());
        let mut seen = stats.allocations();
        spill_episodes = 0;
        timed(|| {
            let input = big.iter().cloned().inspect(|_| {
                let now = stats.allocations();
                spill_episodes += u64::from(now != seen);
                seen = now;
            });
            let sorted = external_sort(&pool, input, DEFAULT_WORK_MEM, false)?;
            Ok(black_box(sorted.count()) as u64)
        })
    })?;
    // The last run is flushed after the input ends, unseen by a pull.
    layer
        .values
        .set("sort.spill_runs", (spill_episodes + 1) as f64);
    let mut sorted_temp = temp.clone();
    sorted_temp.sort_unstable();
    layer.measure("join.merge_ns_per_rec", || {
        timed(|| {
            const JOINS: usize = 5;
            let mut joined = 0;
            for _ in 0..JOINS {
                joined += merge_join(sorted_temp.iter().cloned(), tree.scan_all()).count();
            }
            Ok(black_box(joined) as u64)
        })
    })?;
    drop(tree);

    // The unit cache's shape: 1,000 entries of five ~100-byte records.
    const UNITS: u64 = 1000;
    let unit_value: Vec<u8> = records[..5].concat();
    let fill_hash = |file: &HashFile| -> Result<u64, Error> {
        for k in 0..UNITS {
            black_box(file.put(&k.to_be_bytes(), &unit_value)?);
        }
        Ok(UNITS)
    };
    layer.measure("hash.put_ns", || {
        let file = HashFile::create(wide_pool(), 256)?;
        timed(|| fill_hash(&file))
    })?;
    let hash = HashFile::create(wide_pool(), 256)?;
    fill_hash(&hash)?;
    layer.measure("hash.get_ns", || {
        timed(|| {
            const GETS: u64 = 10_000;
            for i in 0..GETS {
                black_box(hash.get(&(i * 7 % UNITS).to_be_bytes())?);
            }
            Ok(GETS)
        })
    })?;
    drop(hash);
    layer.close();

    // ---- relational ------------------------------------------------------
    let mut layer = Layer::open(tracer, values, "probe.relational");
    let schema = child_schema();
    layer.measure("record.decode_ns", || {
        timed(|| {
            for rec in &records {
                black_box(decode(&schema, rec)?);
            }
            Ok(records.len() as u64)
        })
    })?;
    let tuples: Vec<Tuple> = records
        .iter()
        .map(|r| decode(&schema, r))
        .collect::<Result<_, _>>()?;
    layer.measure("record.encode_ns", || {
        timed(|| {
            for t in &tuples {
                black_box(encode(&schema, t)?);
            }
            Ok(tuples.len() as u64)
        })
    })?;
    layer.close();

    // ---- wal -------------------------------------------------------------
    let mut layer = Layer::open(tracer, values, "probe.wal");
    let page: PageBuf = [7u8; PAGE_SIZE];
    const LOGGED_PAGES: u32 = 64;
    let mut wal_probe_record_bytes = 0.0;
    layer.measure("wal.append_mem_ns", || {
        let log = wal(Arc::new(MemLogStore::new()), FsyncPolicy::Never);
        log_images(&log, LOGGED_PAGES, &page)?;
        let bytes_before = log.stats().bytes;
        let sample = timed(|| log_deltas(&log, 20_000, LOGGED_PAGES, &page))?;
        wal_probe_record_bytes = (log.stats().bytes - bytes_before) as f64 / sample.units as f64;
        Ok(sample)
    })?;
    // Same appends into log files under the durable workload's flush
    // policy, so every eighth pays an fsync and the figure amortises it.
    let mut round = 0;
    layer.measure("wal.append_file_ns", || {
        round += 1;
        let store = FileLogStore::open(&scratch.path().join(format!("wal-append-{round}")))?;
        let log = wal(Arc::new(store), crate::build::DURABLE_FSYNC);
        log_images(&log, LOGGED_PAGES, &page)?;
        timed(|| log_deltas(&log, 2_000, LOGGED_PAGES, &page))
    })?;
    let store = FileLogStore::open(&scratch.path().join("wal-sync"))?;
    let log = wal(Arc::new(store), FsyncPolicy::Never);
    log_images(&log, LOGGED_PAGES, &page)?;
    let wal_sync_ns = layer.time("wal.sync_us", || {
        time_syncs(
            20,
            |_| log_deltas(&log, 8, LOGGED_PAGES, &page).map(drop),
            || Ok(log.flush_to(log.appended_lsn())?),
        )
    })?;
    layer.values.set("wal.sync_us", wal_sync_ns / 1e3);
    layer.close();

    Ok(wal_probe_record_bytes)
}
