//! Property tests for the WAL + recovery pipeline: a buffer pool with a
//! WAL attached runs a random op sequence, "crashes" at a random point
//! (dirty frames lost, only the durable log and flushed pages survive),
//! and recovery must rebuild every allocated page byte-identically.
//! Running recovery a second time must be a no-op in outcome.

use cor_pagestore::{BufferPool, MemDisk, PageBuf, PageId, PAGE_SIZE};
use cor_wal::{recover, FsyncPolicy, MemLogStore, Wal, WalConfig};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum WalOp {
    /// Allocate a fresh page.
    Allocate,
    /// Write `len` copies of `val` at `off` into an existing page.
    Write {
        page: usize,
        off: usize,
        len: usize,
        val: u8,
    },
    /// Checkpoint with the pool's dirty-page table (rotates + GCs).
    Checkpoint,
    /// Force one page's write-back (exercises WAL-before-data and the
    /// full-page-write epoch reset).
    Flush(usize),
}

fn arb_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        2 => Just(WalOp::Allocate),
        8 => (any::<usize>(), 16usize..PAGE_SIZE - 8, 1usize..8, any::<u8>())
            .prop_map(|(page, off, len, val)| WalOp::Write { page, off, len, val }),
        1 => Just(WalOp::Checkpoint),
        2 => any::<usize>().prop_map(WalOp::Flush),
    ]
}

struct Rig {
    disk: Arc<MemDisk>,
    store: Arc<MemLogStore>,
    wal: Arc<Wal>,
    pool: BufferPool,
    pages: Vec<PageId>,
}

fn rig() -> Rig {
    let disk = Arc::new(MemDisk::new());
    let store = Arc::new(MemLogStore::new());
    // Tiny segments force rotation; Always makes every record durable,
    // so an untorn crash loses no log.
    let wal = Arc::new(Wal::new(
        store.clone(),
        WalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 * 1024,
        },
    ));
    // A tiny pool forces evictions mid-sequence, so write-backs (and the
    // WAL-before-data rule + deltas on pages imaged before their last
    // write-back) get exercised.
    let pool = BufferPool::builder()
        .capacity(4)
        .shards(1)
        .disk(Box::new(disk.clone()))
        .build();
    pool.attach_wal(wal.clone()).unwrap();
    Rig {
        disk,
        store,
        wal,
        pool,
        pages: Vec::new(),
    }
}

impl Rig {
    fn apply(&mut self, op: &WalOp) {
        match op {
            WalOp::Allocate => {
                self.pages.push(self.pool.allocate_page().unwrap());
            }
            WalOp::Write {
                page,
                off,
                len,
                val,
            } => {
                if self.pages.is_empty() {
                    return;
                }
                let pid = self.pages[page % self.pages.len()];
                let (off, len) = (*off, *len);
                let val = *val;
                self.pool
                    .write(pid, |mut p| {
                        p.bytes_mut()[off..off + len].fill(val);
                    })
                    .unwrap();
            }
            WalOp::Checkpoint => {
                self.wal
                    .checkpoint(|| self.pool.dirty_page_table())
                    .unwrap();
            }
            WalOp::Flush(i) => {
                if self.pages.is_empty() {
                    return;
                }
                let pid = self.pages[i % self.pages.len()];
                self.pool.flush_page(pid).unwrap();
            }
        }
    }

    /// The ground truth at the crash instant: every allocated page's
    /// bytes as the pool sees them (LSN stamps included).
    fn oracle(&self) -> Vec<(PageId, PageBuf)> {
        self.pages
            .iter()
            .map(|&pid| {
                let buf = self
                    .pool
                    .read(pid, |v| {
                        let mut b = [0u8; PAGE_SIZE];
                        b.copy_from_slice(v.bytes());
                        b
                    })
                    .unwrap();
                (pid, buf)
            })
            .collect()
    }
}

fn disk_page(disk: &MemDisk, pid: PageId) -> PageBuf {
    use cor_pagestore::DiskManager;
    let mut buf = [0u8; PAGE_SIZE];
    disk.read_page(pid, &mut buf).unwrap();
    buf
}

fn disk_image(disk: &MemDisk) -> Vec<PageBuf> {
    use cor_pagestore::DiskManager;
    (0..disk.num_pages())
        .map(|pid| disk_page(disk, pid))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Crash with an intact (fully fsynced) log: recovery rebuilds every
    /// allocated page byte-identically, and a second recovery pass
    /// changes nothing.
    #[test]
    fn recovery_rebuilds_the_crash_instant(
        ops in proptest::collection::vec(arb_op(), 1..60),
        crash_at in any::<usize>(),
    ) {
        let mut rig = rig();
        let crash_at = crash_at % ops.len() + 1;
        for op in &ops[..crash_at] {
            rig.apply(op);
        }
        let oracle = rig.oracle();
        let Rig { disk, store, pool, .. } = rig;
        drop(pool); // dirty frames die with the process
        store.crash(); // unsynced log bytes die too (none: fsync Always)

        recover(disk.as_ref(), store.as_ref()).unwrap();
        for &(pid, expect) in &oracle {
            prop_assert_eq!(
                disk_page(&disk, pid), expect,
                "page {} differs after recovery", pid
            );
        }

        let first = disk_image(&disk);
        let stats = recover(disk.as_ref(), store.as_ref()).unwrap();
        prop_assert_eq!(disk_image(&disk), first, "second recovery changed pages");
        prop_assert_eq!(stats.pages_extended, 0);
    }

    /// Crash with a torn log tail: recovery must still succeed (the torn
    /// record is discarded by CRC), remain idempotent, and land the store
    /// on some consistent prefix of the history — never scan more records
    /// than the untorn log held.
    #[test]
    fn torn_log_tail_recovers_to_a_prefix(
        ops in proptest::collection::vec(arb_op(), 1..40),
        tear in 1usize..64,
    ) {
        let mut rig = rig();
        for op in &ops {
            rig.apply(op);
        }
        let Rig { disk, store, pool, .. } = rig;
        drop(pool);
        let untorn = recover(disk.as_ref(), store.as_ref()).unwrap();
        let untorn_image = disk_image(&disk);

        store.crash_torn(tear);
        let torn = recover(disk.as_ref(), store.as_ref()).unwrap();
        prop_assert!(torn.records_scanned <= untorn.records_scanned);

        // Torn replay may rewind pages whose tail records were lost, but
        // it must stay deterministic: a second pass is a no-op.
        let first = disk_image(&disk);
        recover(disk.as_ref(), store.as_ref()).unwrap();
        prop_assert_eq!(disk_image(&disk), first);

        // If the tear happened to chop only whole records' worth of
        // nothing (no records lost), the image must match the untorn one.
        if torn.records_scanned == untorn.records_scanned {
            prop_assert_eq!(first, untorn_image);
        }
    }
}
