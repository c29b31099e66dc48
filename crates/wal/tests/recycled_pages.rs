//! Page ids that change class across a crash.
//!
//! Query temporaries are never logged (`BufferPool::allocate_temp_page` /
//! `write_temp`), yet they share the pool's free list with logged pages,
//! so one page id can be a logged tenant's, then a temporary's, then a
//! logged tenant's again. Recovery must come out exact either way round:
//!
//! * logged → temp: the log still holds the old tenant's records; redo
//!   replays them over the temporary's bytes, which nothing references;
//! * temp → logged: the new tenant is imaged at allocation, so redo
//!   rebuilds it byte for byte whatever the temporary left in the store.

use cor_pagestore::{
    BufferPool, DiskManager, FaultMode, FaultyDisk, MemDisk, PageBuf, PageId, PAGE_SIZE,
};
use cor_wal::{recover, FsyncPolicy, MemLogStore, Wal, WalConfig};
use std::sync::Arc;

struct Rig {
    faulty: Arc<FaultyDisk<Arc<MemDisk>>>,
    store: Arc<MemLogStore>,
    wal: Arc<Wal>,
    pool: BufferPool,
}

fn rig() -> Rig {
    let faulty = Arc::new(FaultyDisk::new(Arc::new(MemDisk::new())));
    let store = Arc::new(MemLogStore::new());
    let wal = Arc::new(Wal::new(
        store.clone(),
        WalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 64 * 1024,
        },
    ));
    let pool = BufferPool::builder()
        .capacity(8)
        .disk(Box::new(faulty.clone()))
        .build();
    pool.attach_wal(wal.clone()).unwrap();
    Rig {
        faulty,
        store,
        wal,
        pool,
    }
}

impl Rig {
    fn bytes(&self, pid: PageId) -> PageBuf {
        self.pool
            .read(pid, |v| {
                let mut b = [0u8; PAGE_SIZE];
                b.copy_from_slice(v.bytes());
                b
            })
            .unwrap()
    }

    fn fill(&self, pid: PageId, at: usize, val: u8) {
        self.pool
            .write(pid, |mut p| p.bytes_mut()[at..at + 32].fill(val))
            .unwrap();
    }

    /// Kill the disk on its next write (which is dropped), lose the pool
    /// and the log's unsynced tail, and hand back what survives.
    fn crash(self, victim: PageId) -> (Arc<MemDisk>, Arc<MemLogStore>) {
        self.faulty.arm(1, FaultMode::CrashDrop);
        assert!(self.pool.flush_page(victim).is_err(), "the write must die");
        assert!(self.faulty.is_dead());
        drop(self.pool);
        self.store.crash();
        (self.faulty.inner().clone(), self.store)
    }
}

fn disk_bytes(disk: &MemDisk, pid: PageId) -> PageBuf {
    let mut b = [0u8; PAGE_SIZE];
    disk.read_page(pid, &mut b).unwrap();
    b
}

#[test]
fn logged_page_recycled_as_a_temporary_recovers_cleanly() {
    let r = rig();
    let old = r.pool.allocate_page().unwrap();
    let live = r.pool.allocate_page().unwrap();
    r.fill(old, 100, 0xA1);
    r.fill(live, 100, 0xB1);
    r.pool.flush_page(old).unwrap(); // its logged state is in the store
    r.fill(old, 200, 0xA2); // and it is dirty again, with a delta behind it

    // The logged tenant goes away; a temporary takes its page id.
    r.pool.free_page(old).unwrap();
    let before = r.wal.stats();
    let temp = r.pool.allocate_temp_page().unwrap();
    assert_eq!(temp, old, "the freed id is recycled");
    r.pool
        .write_temp(temp, |mut p| p.bytes_mut()[16..].fill(0x77))
        .unwrap();
    r.pool.flush_page(temp).unwrap(); // unlogged bytes reach the store
    assert_eq!(r.wal.stats(), before, "a temporary never reaches the log");
    assert!(
        r.pool
            .dirty_page_table()
            .iter()
            .all(|&(pid, _)| pid != temp),
        "nor a checkpoint's dirty-page table"
    );

    // One more logged change that only the log holds at the crash.
    r.fill(live, 300, 0xB2);
    let want_live = r.bytes(live);
    let (disk, store) = r.crash(live);

    recover(disk.as_ref(), store.as_ref()).expect("redo over a temporary's bytes is clean");
    assert_eq!(disk_bytes(&disk, live), want_live, "live page restored");
    // The recycled id holds the dead tenant's replayed records: garbage
    // nothing references, but stable garbage — redo stays idempotent.
    let first = disk_bytes(&disk, temp);
    recover(disk.as_ref(), store.as_ref()).unwrap();
    assert_eq!(disk_bytes(&disk, temp), first);
    assert_eq!(disk_bytes(&disk, live), want_live);
}

#[test]
fn temporary_page_recycled_as_a_logged_page_is_restored_exactly() {
    let r = rig();
    let temp = r.pool.allocate_temp_page().unwrap();
    r.pool
        .write_temp(temp, |mut p| p.bytes_mut()[16..].fill(0x77))
        .unwrap();
    r.pool.flush_page(temp).unwrap(); // the store holds unlogged bytes
    r.pool.free_page(temp).unwrap();

    let logged = r.pool.allocate_page().unwrap();
    assert_eq!(logged, temp, "the freed id is recycled");
    r.fill(logged, 100, 0xC1);
    r.fill(logged, 900, 0xC2);
    let want = r.bytes(logged);
    assert_ne!(want, disk_bytes(r.faulty.inner(), logged));

    // The new tenant's only write-back is the one the crash drops.
    let (disk, store) = r.crash(logged);
    let stats = recover(disk.as_ref(), store.as_ref()).unwrap();
    assert!(
        stats.images_applied >= 1,
        "the allocation image is replayed"
    );
    assert_eq!(
        disk_bytes(&disk, logged),
        want,
        "redo restores the logged tenant's exact bytes over the temporary's"
    );
}
