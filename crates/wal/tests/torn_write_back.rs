//! A torn write-back of a page imaged before its last write-back.
//!
//! The log images a page once per checkpoint interval, not once per
//! write-back, so a page can be written back, dirtied again with a delta,
//! and then torn by its next write-back with no image after the first
//! write-back. Redo repairs it only if it starts at or below the epoch's
//! image: the pool therefore gives a frame dirtied from clean the image's
//! LSN as its recLSN, not the delta's, and the checkpoint taken while the
//! page is dirty records that horizon.

use cor_pagestore::{
    BufferPool, DiskManager, FaultMode, FaultyDisk, MemDisk, PageBuf, PageId, PAGE_SIZE,
};
use cor_wal::{recover, FsyncPolicy, MemLogStore, Wal, WalConfig};
use std::sync::Arc;

/// Bytes of the torn write that land: the page header (and its LSN word)
/// is new, the tail keeps what the first write-back left.
const KEEP: usize = 512;

/// Run the scenario, firing `mode` at the page's second write-back, and
/// return the store it leaves: recovered from the log after a crash, or
/// flushed to completion for the fail-stop oracle.
fn run(mode: FaultMode) -> (Arc<MemDisk>, PageId) {
    let faulty = Arc::new(FaultyDisk::new(Arc::new(MemDisk::new())));
    let store = Arc::new(MemLogStore::new());
    let wal = Arc::new(Wal::new(
        store.clone(),
        WalConfig {
            fsync: FsyncPolicy::Always,
            ..WalConfig::default()
        },
    ));
    let pool = BufferPool::builder()
        .capacity(4)
        .disk(Box::new(faulty.clone()))
        .build();
    pool.attach_wal(wal.clone()).unwrap();
    let fill = |pid, at: usize, val: u8| {
        pool.write(pid, |mut p| p.bytes_mut()[at..at + 32].fill(val))
            .unwrap()
    };

    let pid = pool.allocate_page().unwrap(); // the epoch's image
    fill(pid, 100, 0xA1); // a delta on it
    pool.flush_page(pid).unwrap(); // first write-back lands
    fill(pid, KEEP + 1000, 0xA2); // re-dirtied with a delta in the tail
    let dpt = pool.dirty_page_table();
    assert_eq!(dpt.len(), 1);
    let info = wal.checkpoint(|| dpt).unwrap(); // taken while dirty
    assert_eq!(info.dirty_pages, 1);

    faulty.arm(1, mode);
    assert!(pool.flush_page(pid).is_err(), "the second write-back fails");
    if mode == FaultMode::FailStop {
        // The write landed whole; finish the job for the oracle.
        pool.flush_all().unwrap();
        return (faulty.inner().clone(), pid);
    }
    assert!(faulty.is_dead());
    drop(pool);
    store.crash();
    let disk = faulty.inner().clone();
    recover(disk.as_ref(), store.as_ref()).expect("redo over a torn page");
    (disk, pid)
}

fn bytes(disk: &MemDisk, pid: PageId) -> PageBuf {
    let mut b = [0u8; PAGE_SIZE];
    disk.read_page(pid, &mut b).unwrap();
    b
}

#[test]
fn torn_write_back_after_an_unimaged_redirty_recovers_to_the_oracle() {
    let (oracle, pid) = run(FaultMode::FailStop);
    let (recovered, same) = run(FaultMode::CrashTorn { keep: KEEP });
    assert_eq!(pid, same);
    assert_eq!(recovered.num_pages(), oracle.num_pages());
    let want = bytes(&oracle, pid);
    assert_eq!(want[KEEP + 1000], 0xA2, "the oracle holds the tail delta");
    assert!(
        bytes(&recovered, pid) == want,
        "redo must start at the epoch image, below the torn page's LSN word"
    );
}
