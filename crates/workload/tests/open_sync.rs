//! `open_on` syncs the data store exactly once, after recovery and before
//! the reopened log takes its first record. Recovery's redo writes are
//! then on the medium before a later checkpoint can drop the log records
//! they came from.

use complexobj::UpdateQuery;
use cor_pagestore::{DiskError, DiskManager, MemDisk, PageBuf, PageId};
use cor_wal::{LogStore, MemLogStore};
use cor_workload::{generate, Engine, EngineSpec, Params};
use std::sync::{Arc, Mutex};

/// A `MemDisk` that notes, at each sync, how many durable bytes the
/// engine's log holds.
struct SyncProbe {
    disk: MemDisk,
    log: Arc<MemLogStore>,
    syncs: Mutex<Vec<usize>>,
}

impl SyncProbe {
    fn log_bytes(&self) -> usize {
        self.log.read_segments().unwrap().iter().map(Vec::len).sum()
    }
}

impl DiskManager for SyncProbe {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        self.disk.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        self.disk.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId, DiskError> {
        self.disk.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.disk.num_pages()
    }
    fn sync(&self) -> Result<(), DiskError> {
        self.syncs.lock().unwrap().push(self.log_bytes());
        self.disk.sync()
    }
}

#[test]
fn open_syncs_the_store_once_before_the_log_takes_a_record() {
    let generated = generate(&Params {
        parent_card: 200,
        ..Params::paper_default()
    });
    let log = Arc::new(MemLogStore::new());
    let probe = Arc::new(SyncProbe {
        disk: MemDisk::new(),
        log: log.clone(),
        syncs: Mutex::default(),
    });
    let engine = Engine::builder()
        .pool_pages(16)
        .create_on(
            probe.clone(),
            log.clone(),
            &EngineSpec::Standard(generated.spec.clone()),
        )
        .unwrap();
    for (i, sub) in generated.spec.child_rels[0].iter().take(8).enumerate() {
        let update = UpdateQuery {
            targets: vec![sub.oid],
            new_ret1: 5000 + i as i64,
        };
        engine.update(&update).unwrap();
    }
    drop(engine); // dirty frames die with the pool: recovery redoes them
    log.crash();
    let crashed = probe.log_bytes();
    probe.syncs.lock().unwrap().clear();

    let _reopened = Engine::builder()
        .open_on(probe.clone(), log.clone())
        .unwrap();
    assert_eq!(
        *probe.syncs.lock().unwrap(),
        [crashed],
        "one store sync, before the reopened log's first append"
    );
    assert!(probe.log_bytes() > crashed, "open appended nothing");
}
