//! The file log's contract. `FileLogStore` writes in place over space it
//! zero-filled ahead, and cuts a segment back to its appended bytes when
//! it closes it; none of that may show through `LogStore`:
//!
//! * for any script of appends, syncs, rotations, GCs and clean reopens,
//!   `read_segments` equals `MemLogStore`'s;
//! * a store that is never dropped (a crash: the zero fill stays on
//!   disk) recovers every synced record with no torn bytes, and the log
//!   attached after it appends where recovery will see the next record;
//! * a torn tail in the active segment is cut off when the log attaches,
//!   so a second crash still recovers.

use cor_pagestore::{MemDisk, PageBuf, PAGE_SIZE};
use cor_wal::record::RECORD_HEADER;
use cor_wal::{
    decode_stream, recover, FileLogStore, LogStore, MemLogStore, Wal, WalConfig, WalHook,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fresh, empty directory unique to this process and call.
fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cor-filelog-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn page(fill: u8) -> PageBuf {
    [fill; PAGE_SIZE]
}

/// Every LSN the store's segments decode to, in log order.
fn lsns(store: &dyn LogStore) -> Vec<u32> {
    store
        .read_segments()
        .unwrap()
        .iter()
        .flat_map(|s| decode_stream(s).records)
        .map(|r| r.lsn)
        .collect()
}

fn open_wal(store: Arc<dyn LogStore>) -> Wal {
    Wal::attach(store, WalConfig::default()).unwrap()
}

#[derive(Debug, Clone)]
enum StoreOp {
    /// Append `len` bytes, each `fill`.
    Append {
        len: usize,
        fill: u8,
    },
    Sync,
    /// Rotate to a segment whose first LSN is the next one in the script.
    Rotate,
    /// GC below the `k`-th segment's first LSN.
    Gc(usize),
    /// Drop the file store cleanly and open it again.
    Reopen,
}

fn arb_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        6 => (0usize..5_000, any::<u8>()).prop_map(|(len, fill)| StoreOp::Append { len, fill }),
        1 => (100_000usize..300_000, any::<u8>()).prop_map(|(len, fill)| StoreOp::Append { len, fill }),
        2 => Just(StoreOp::Sync),
        2 => Just(StoreOp::Rotate),
        1 => (0usize..6).prop_map(StoreOp::Gc),
        2 => Just(StoreOp::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The file store reads back exactly what the memory store does,
    /// whatever it zero-filled ahead and however often it was reopened.
    #[test]
    fn file_store_matches_mem_store(ops in proptest::collection::vec(arb_op(), 1..24)) {
        let dir = scratch_dir("model");
        let mem = MemLogStore::new();
        let mut file = FileLogStore::open(&dir).unwrap();
        let mut firsts: Vec<u32> = vec![1];
        for op in &ops {
            match *op {
                StoreOp::Append { len, fill } => {
                    let bytes = vec![fill; len];
                    mem.append(&bytes).unwrap();
                    file.append(&bytes).unwrap();
                }
                StoreOp::Sync => {
                    mem.sync().unwrap();
                    file.sync().unwrap();
                }
                StoreOp::Rotate => {
                    let first = firsts.last().unwrap() + 10;
                    firsts.push(first);
                    mem.rotate(first).unwrap();
                    file.rotate(first).unwrap();
                }
                StoreOp::Gc(k) => {
                    let lsn = firsts[k.min(firsts.len() - 1)];
                    prop_assert_eq!(mem.gc_before(lsn).unwrap(), file.gc_before(lsn).unwrap());
                }
                StoreOp::Reopen => {
                    drop(file);
                    file = FileLogStore::open(&dir).unwrap();
                }
            }
            prop_assert_eq!(mem.segment_count(), file.segment_count());
            prop_assert!(mem.read_segments().unwrap() == file.read_segments().unwrap());
        }
        drop(file);
        // A cleanly closed store's files hold exactly the appended bytes.
        let mut on_disk: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        on_disk.sort();
        let files: Vec<Vec<u8>> = on_disk.iter().map(|p| std::fs::read(p).unwrap()).collect();
        prop_assert!(files == mem.read_segments().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Log `n` images under `Always`, so each is synced before it returns.
fn log_images(wal: &Wal, first_pid: u32, n: u32) -> Vec<u32> {
    (0..n)
        .map(|i| {
            wal.log_page_image(first_pid + i, &page(i as u8 + 1))
                .unwrap()
        })
        .collect()
}

#[test]
fn a_crashed_store_recovers_its_synced_records_past_the_zero_fill() {
    let dir = scratch_dir("crash");
    let first = {
        let store = Arc::new(FileLogStore::open(&dir).unwrap());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let lsns = log_images(&wal, 0, 5);
        // No drop: the zero fill past the records stays on disk.
        std::mem::forget(wal);
        std::mem::forget(store);
        lsns
    };
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    assert!(
        std::fs::metadata(&seg).unwrap().len() > 5 * (PAGE_SIZE as u64 + 4),
        "the crashed segment still ends in its zero fill"
    );

    let store: Arc<dyn LogStore> = Arc::new(FileLogStore::open(&dir).unwrap());
    let stats = recover(&MemDisk::new(), store.as_ref()).unwrap();
    assert_eq!(stats.records_scanned, 5);
    assert_eq!(stats.images_applied, 5);
    assert_eq!(stats.tail_dropped_bytes, 0, "zeros are fill, not a tear");
    assert_eq!(lsns(store.as_ref()), first);

    // The attached log appends where the next recovery will see it.
    let wal = open_wal(Arc::clone(&store));
    let next = wal.log_page_image(9, &page(0xEE)).unwrap();
    assert_eq!(next, first[4] + 1);
    std::mem::forget(wal);
    std::mem::forget(store);

    let store = FileLogStore::open(&dir).unwrap();
    let stats = recover(&MemDisk::new(), &store).unwrap();
    assert_eq!(stats.tail_dropped_bytes, 0);
    let mut expected = first.clone();
    expected.push(next);
    assert_eq!(
        lsns(&store),
        expected,
        "every synced record, the new one too"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn tail must not outlive the attach after it: in a segment that
/// is no longer the newest, the next recovery would refuse it as corrupt.
#[test]
fn a_file_log_torn_once_still_recovers_after_the_next_crash() {
    let dir = scratch_dir("torn");
    let first = {
        let store = Arc::new(FileLogStore::open(&dir).unwrap());
        log_images(&Wal::new(store, WalConfig::default()), 0, 2)
    }; // dropped: the segment is exact
    let torn = b"\x5a\xa5 half a record";
    append_by_hand(&dir, torn);

    let store: Arc<dyn LogStore> = Arc::new(FileLogStore::open(&dir).unwrap());
    let stats = recover(&MemDisk::new(), store.as_ref()).unwrap();
    assert_eq!(stats.tail_dropped_bytes, torn.len() as u64);
    let wal = open_wal(Arc::clone(&store));
    let next = wal.log_page_image(7, &page(7)).unwrap();
    std::mem::forget(wal);
    std::mem::forget(store);

    let store = FileLogStore::open(&dir).unwrap();
    let stats = recover(&MemDisk::new(), &store).expect("the torn tail was cut off at attach");
    assert_eq!(stats.tail_dropped_bytes, 0);
    assert_eq!(lsns(&store), vec![first[0], first[1], next]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Append `bytes` to the newest segment file, as a torn write would.
fn append_by_hand(dir: &Path, bytes: &[u8]) {
    use std::io::Write;
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    std::fs::OpenOptions::new()
        .append(true)
        .open(segs.last().unwrap())
        .unwrap()
        .write_all(bytes)
        .unwrap();
}

#[test]
fn an_empty_log_that_crashed_in_its_fill_appends_from_the_start() {
    let dir = scratch_dir("empty");
    {
        let store = FileLogStore::open(&dir).unwrap();
        store.append(b"\0\0\0\0").unwrap(); // zeros only: no record
        store.sync().unwrap();
        std::mem::forget(store);
    }
    let store: Arc<dyn LogStore> = Arc::new(FileLogStore::open(&dir).unwrap());
    let stats = recover(&MemDisk::new(), store.as_ref()).unwrap();
    assert_eq!((stats.records_scanned, stats.tail_dropped_bytes), (0, 0));
    let wal = open_wal(Arc::clone(&store));
    let lsn = wal.log_page_image(3, &page(3)).unwrap();
    assert_eq!(lsn, 1);
    assert_eq!(
        store.read_segments().unwrap()[0].len(),
        RECORD_HEADER + 4 + PAGE_SIZE
    );
    drop(wal);
    drop(store);
    let store = FileLogStore::open(&dir).unwrap();
    assert_eq!(lsns(&store), vec![1]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash right after an attach leaves an empty newest segment, already
/// named for the next LSN. Attaching again appends into it: rotating
/// would open the same file a second time, and the log would read it
/// twice.
#[test]
fn an_empty_newest_segment_takes_the_next_records() {
    let dir = scratch_dir("empty-newest");
    let first = {
        let store = Arc::new(FileLogStore::open(&dir).unwrap());
        log_images(&Wal::new(store, WalConfig::default()), 0, 2)
    };
    {
        let store: Arc<dyn LogStore> = Arc::new(FileLogStore::open(&dir).unwrap());
        std::mem::forget(open_wal(store)); // rotated, then crashed
    }
    let store: Arc<dyn LogStore> = Arc::new(FileLogStore::open(&dir).unwrap());
    assert_eq!(store.segment_count(), 2);
    let wal = open_wal(Arc::clone(&store));
    let next = wal.log_page_image(5, &page(5)).unwrap();
    assert_eq!(store.segment_count(), 2, "no second segment for one LSN");
    drop(wal);
    drop(store);
    let store = FileLogStore::open(&dir).unwrap();
    assert_eq!(lsns(&store), vec![first[0], first[1], next]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
