//! ARIES-lite redo-only recovery.
//!
//! The engine has no multi-page transactions to roll back — the redo
//! unit is the individual logged page write — so recovery is a pure
//! redo pass:
//!
//! 1. **Analysis**: read every surviving segment, decode records until
//!    the (expected) torn tail, and find the *last* checkpoint record.
//!    Only nonzero bytes after the last complete record count as torn:
//!    a file store's active segment is zero-filled ahead of its appends,
//!    so after a crash it may end in zeros, which are fill, not damage.
//!    The redo horizon is the checkpoint's recorded `redo_lsn` —
//!    computed by the writer as `min(begin LSN, min recLSN)` with the
//!    begin LSN captured *before* the dirty-page table, so page writes
//!    raced against the checkpoint are always covered; with no
//!    checkpoint, redo starts at the first record.
//! 2. **Redo**: walk records with `lsn >= redo_start` in log order.
//!    Page images are applied **unconditionally** (a torn page's LSN
//!    word cannot be trusted; images are what repair torn pages): a
//!    whole image is copied in, a sparse image's runs are written onto a
//!    zeroed buffer. Deltas write their runs onto the stored page, gated
//!    on the page LSN — applied only when `page_lsn < lsn` — which makes
//!    replay idempotent: re-running recovery reproduces byte-identical
//!    pages.
//!
//! After each applied record the page is stamped with the record's LSN,
//! mirroring what the buffer pool did at logging time, so recovered
//! pages are byte-identical to the pages an uncrashed run would have
//! written.

use std::io;

use cor_pagestore::wal::Lsn;
use cor_pagestore::{DiskError, DiskManager, PageBuf, PageId, PageMut, PageView, PAGE_SIZE};

use crate::record::{decode_stream, Record, RecordBody};
use crate::store::LogStore;

/// Errors surfaced by [`recover`].
#[derive(Debug)]
pub enum RecoveryError {
    /// The log store could not be read.
    Store(io::Error),
    /// A non-final segment has a corrupt or truncated record stream.
    /// Only the *last* segment may legitimately end mid-record (the
    /// crash tore it); corruption earlier in the log is unrecoverable
    /// with redo alone. A tail of zeros is fill, never corruption.
    CorruptSegment {
        /// Index of the corrupt segment in log order.
        segment: usize,
    },
    /// Applying a record to the page store failed.
    Disk(DiskError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Store(e) => write!(f, "log store unreadable: {e}"),
            RecoveryError::CorruptSegment { segment } => {
                write!(
                    f,
                    "log segment {segment} is corrupt before the final segment"
                )
            }
            RecoveryError::Disk(e) => write!(f, "page store failed during redo: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Store(e) => Some(e),
            RecoveryError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for RecoveryError {
    fn from(e: DiskError) -> Self {
        RecoveryError::Disk(e)
    }
}

/// What a [`recover`] pass did, for reports and the metrics exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Records decoded across all segments.
    pub records_scanned: u64,
    /// LSN of the last complete checkpoint found, if any.
    pub checkpoint_lsn: Option<Lsn>,
    /// First LSN redo considered.
    pub redo_start: Lsn,
    /// Page images applied, whole or sparse (always unconditional).
    pub images_applied: u64,
    /// Deltas applied because the page LSN was older than the record.
    pub deltas_applied: u64,
    /// Deltas skipped because the page already carried the record's
    /// effects (`page_lsn >= lsn`).
    pub deltas_skipped: u64,
    /// Bytes dropped from the torn tail of the final segment: from the
    /// end of its last complete record to its last nonzero byte (a zero
    /// tail is fill, not a tear).
    pub tail_dropped_bytes: u64,
    /// Pages appended to the store because redo referenced pages beyond
    /// its end (allocations whose extension never made it to the store).
    pub pages_extended: u64,
}

/// Replay the log in `store` onto `disk`. Returns what was done.
///
/// Safe to run on a clean store (redo finds every page already current
/// and skips deltas; images re-apply to identical bytes) and safe to run
/// twice — the second pass reconstructs byte-identical pages.
pub fn recover(
    disk: &dyn DiskManager,
    store: &dyn LogStore,
) -> Result<RecoveryStats, RecoveryError> {
    let segments = store.read_segments().map_err(RecoveryError::Store)?;
    let mut stats = RecoveryStats::default();
    let mut records: Vec<Record> = Vec::new();
    let last = segments.len().saturating_sub(1);
    for (i, seg) in segments.iter().enumerate() {
        let decoded = decode_stream(seg);
        let torn = torn_bytes(&seg[decoded.consumed..]);
        if torn > 0 {
            if i != last {
                return Err(RecoveryError::CorruptSegment { segment: i });
            }
            stats.tail_dropped_bytes = torn as u64;
        }
        records.extend(decoded.records);
    }
    stats.records_scanned = records.len() as u64;

    // Analysis: the redo horizon from the last complete checkpoint. The
    // record carries it explicitly (clamped to the record's own LSN for
    // defense in depth); the stored dirty-page table is diagnostic only.
    let mut redo_start = records.first().map_or(Lsn::MAX, |r| r.lsn);
    for rec in &records {
        if let RecordBody::Checkpoint { redo_lsn, .. } = &rec.body {
            stats.checkpoint_lsn = Some(rec.lsn);
            redo_start = (*redo_lsn).min(rec.lsn);
        }
    }
    stats.redo_start = if records.is_empty() { 0 } else { redo_start };

    // Redo.
    let mut buf = [0u8; PAGE_SIZE];
    for rec in &records {
        if rec.lsn < redo_start {
            continue;
        }
        match &rec.body {
            RecordBody::Checkpoint { .. } => {}
            RecordBody::PageImage { pid, image } => {
                buf.copy_from_slice(&image[..]);
                redo_image(disk, *pid, rec.lsn, &mut buf, &mut stats)?;
            }
            RecordBody::SparseImage { pid, ranges } => {
                buf.fill(0);
                ranges.apply(&mut buf);
                redo_image(disk, *pid, rec.lsn, &mut buf, &mut stats)?;
            }
            RecordBody::PageDelta { pid, ranges } => {
                extend_to(disk, *pid, &mut stats)?;
                disk.read_page(*pid, &mut buf)?;
                if PageView::new(&buf).lsn() >= rec.lsn {
                    stats.deltas_skipped += 1;
                    continue;
                }
                ranges.apply(&mut buf);
                PageMut::new(&mut buf).set_lsn(rec.lsn);
                disk.write_page(*pid, &buf)?;
                stats.deltas_applied += 1;
            }
        }
    }
    Ok(stats)
}

/// Write an image already built in `buf` to `pid`, stamped with `lsn`.
fn redo_image(
    disk: &dyn DiskManager,
    pid: PageId,
    lsn: Lsn,
    buf: &mut PageBuf,
    stats: &mut RecoveryStats,
) -> Result<(), DiskError> {
    extend_to(disk, pid, stats)?;
    PageMut::new(buf).set_lsn(lsn);
    disk.write_page(pid, buf)?;
    stats.images_applied += 1;
    Ok(())
}

/// How many bytes of a segment's undecodable `tail` are torn: up to
/// and including its last nonzero byte. Zeros after that are fill.
fn torn_bytes(tail: &[u8]) -> usize {
    tail.iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1)
}

/// Grow the store until `pid` is addressable (the crash may have lost
/// in-memory allocations whose backing extension never happened).
fn extend_to(disk: &dyn DiskManager, pid: u32, stats: &mut RecoveryStats) -> Result<(), DiskError> {
    while disk.num_pages() <= pid {
        disk.allocate_page()?;
        stats.pages_extended += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Wal, WalConfig};
    use crate::store::MemLogStore;
    use cor_pagestore::wal::WalHook;
    use cor_pagestore::MemDisk;
    use std::sync::Arc;

    fn page_bytes(disk: &dyn DiskManager, pid: u32) -> PageBuf {
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut buf).unwrap();
        buf
    }

    /// Drive the WAL by hand the way the pool would: log, then stamp.
    fn logged_write(wal: &Wal, page: &mut PageBuf, pid: u32, f: impl FnOnce(&mut PageBuf)) {
        let pre = *page;
        f(page);
        if pre[..] != page[..] {
            let (lsn, _) = wal.log_page_write(pid, &pre, page).unwrap();
            PageMut::new(&mut page[..]).set_lsn(lsn);
        }
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let disk = MemDisk::new();
        let store = MemLogStore::new();
        let stats = recover(&disk, &store).unwrap();
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn redo_rebuilds_lost_pages_from_images_and_deltas() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        // "In-memory" page that never reaches the data store (all writes
        // lost in the crash), only the log survives.
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 0, |p| p[0..4].fill(1)); // image
        logged_write(&wal, &mut page, 0, |p| p[100..104].fill(2)); // delta
        logged_write(&wal, &mut page, 0, |p| p[200..204].fill(3)); // delta

        let disk = MemDisk::new(); // empty: page 0 never written back
        let stats = recover(&disk, store.as_ref()).unwrap();
        assert_eq!(stats.images_applied, 1);
        assert_eq!(stats.deltas_applied, 2);
        assert_eq!(stats.pages_extended, 1);
        assert_eq!(page_bytes(&disk, 0), page, "byte-identical reconstruction");
    }

    #[test]
    fn double_recovery_is_byte_identical() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 2, |p| p[0..8].fill(0xAB));
        logged_write(&wal, &mut page, 2, |p| p[50..60].fill(0xCD));

        let disk = MemDisk::new();
        recover(&disk, store.as_ref()).unwrap();
        let first = page_bytes(&disk, 2);
        let stats = recover(&disk, store.as_ref()).unwrap();
        assert_eq!(page_bytes(&disk, 2), first);
        // The image re-applies unconditionally and resets the page LSN
        // below the deltas, so they re-apply too — still byte-identical.
        assert_eq!(stats.images_applied, 1);
        assert_eq!(stats.deltas_applied, 1);
    }

    #[test]
    fn deltas_already_on_disk_are_skipped() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let disk = MemDisk::new();
        disk.allocate_page().unwrap();
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 0, |p| p[0..4].fill(7));
        logged_write(&wal, &mut page, 0, |p| p[10..14].fill(8));
        // The page made it to disk (write-back happened before the crash).
        disk.write_page(0, &page).unwrap();

        let stats = recover(&disk, store.as_ref()).unwrap();
        // Image applies unconditionally; the delta then re-applies since
        // the image reset the page LSN. Final bytes unchanged.
        assert_eq!(page_bytes(&disk, 0), page);
        assert!(stats.images_applied == 1);

        // A *later* delta against a current page is skipped: replay only
        // the delta portion of the log by checkpointing past the image.
        let mut page2 = page;
        logged_write(&wal, &mut page2, 0, |p| p[20..24].fill(9));
        disk.write_page(0, &page2).unwrap();
        wal.checkpoint(Vec::new).unwrap(); // empty DPT: redo starts at the checkpoint
        let mut page3 = page2;
        // After a checkpoint the next write images; flush it to disk too,
        // then append one pure delta that is ALSO already on disk.
        logged_write(&wal, &mut page3, 0, |p| p[30..34].fill(1)); // image (post-ckpt)
        logged_write(&wal, &mut page3, 0, |p| p[40..44].fill(2)); // delta
        disk.write_page(0, &page3).unwrap();
        let stats = recover(&disk, store.as_ref()).unwrap();
        assert_eq!(stats.deltas_skipped, 0, "image reset precedes the delta");
        assert_eq!(page_bytes(&disk, 0), page3);
    }

    #[test]
    fn recovery_starts_at_the_last_checkpoints_horizon() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 1, |p| p[0] = 1);
        wal.checkpoint(Vec::new).unwrap();
        let mut p4 = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut p4, 4, |p| p[0] = 4);

        let disk = MemDisk::new();
        // Page 1's image precedes the checkpoint: not replayed. Only
        // page 4 is reconstructed; page 1 stays whatever the store holds
        // (here: it gets extended as a zero page on the way to page 4).
        let stats = recover(&disk, store.as_ref()).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(2));
        assert_eq!(stats.redo_start, 2);
        assert_eq!(stats.images_applied, 1, "only page 4's image");
        assert_eq!(page_bytes(&disk, 4), p4);
        assert!(page_bytes(&disk, 1).iter().all(|&b| b == 0));
    }

    #[test]
    fn write_raced_against_a_checkpoint_is_replayed() {
        // The write is logged between the checkpoint's begin-LSN capture
        // and its record append, and the DPT snapshot misses it; the
        // crash then loses the dirty frame. The recorded redo horizon
        // must still reach back to the raced record.
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let mut page = [0u8; PAGE_SIZE];
        wal.checkpoint(|| {
            logged_write(&wal, &mut page, 0, |p| p[0..4].fill(9));
            Vec::new()
        })
        .unwrap();

        let disk = MemDisk::new(); // dirty frame never hit the store
        let stats = recover(&disk, store.as_ref()).unwrap();
        assert_eq!(stats.images_applied, 1, "raced record replayed");
        assert_eq!(page_bytes(&disk, 0), page, "acknowledged write survives");
    }

    #[test]
    fn torn_log_tail_is_dropped_cleanly() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 0, |p| p[0] = 1);
        let before_torn = page;
        logged_write(&wal, &mut page, 0, |p| p[1] = 2);
        // Tear the last record's final bytes out of the durable log.
        store.crash_torn(5);

        let disk = MemDisk::new();
        let stats = recover(&disk, store.as_ref()).unwrap();
        assert!(stats.tail_dropped_bytes > 0);
        assert_eq!(stats.records_scanned, 1, "second record is gone");
        assert_eq!(page_bytes(&disk, 0), before_torn);
    }

    /// Attach cuts a torn tail off before it rotates past it. Left in
    /// place, the tail would sit in a segment that is no longer the
    /// newest, and the next recovery would refuse it as corrupt.
    #[test]
    fn a_log_torn_once_still_recovers_after_the_next_crash() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 0, |p| p[0] = 1); // image
        let first = page;
        logged_write(&wal, &mut page, 1, |p| p[1] = 2); // image, torn below
        store.sync().unwrap();
        store.crash_torn(5);
        let stats = recover(&MemDisk::new(), store.as_ref()).unwrap();
        assert_eq!(stats.records_scanned, 1);
        assert!(stats.tail_dropped_bytes > 0);

        let wal = Wal::attach(store.clone(), WalConfig::default()).unwrap();
        let mut p2 = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut p2, 2, |p| p[2] = 3);
        store.sync().unwrap();
        store.crash();

        let disk = MemDisk::new();
        let stats = recover(&disk, store.as_ref()).expect("no segment is left torn");
        assert_eq!(stats.records_scanned, 2);
        assert_eq!(stats.tail_dropped_bytes, 0);
        assert_eq!(page_bytes(&disk, 0), first);
        assert_eq!(page_bytes(&disk, 2), p2, "the record logged after attach");
    }

    #[test]
    fn a_zero_tail_is_fill_not_a_tear() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 0, |p| p[0] = 1);
        store.append(&[0; 100]).unwrap();
        store.rotate(99).unwrap(); // zeros end a non-final segment too
        store.append(&[0; 7]).unwrap();
        let stats = recover(&MemDisk::new(), store.as_ref()).unwrap();
        assert_eq!((stats.records_scanned, stats.tail_dropped_bytes), (1, 0));
        // Torn bytes count up to the last nonzero one only.
        store.append(&[0, 5, 0, 0]).unwrap();
        let stats = recover(&MemDisk::new(), store.as_ref()).unwrap();
        assert_eq!(stats.tail_dropped_bytes, 9);
    }

    #[test]
    fn corruption_before_the_final_segment_is_fatal() {
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        let mut page = [0u8; PAGE_SIZE];
        logged_write(&wal, &mut page, 0, |p| p[0] = 1);
        store.crash_torn(3); // tear segment 0...
        store.rotate(99).unwrap(); // ...then make it non-final
        store.append(b"").unwrap();
        let disk = MemDisk::new();
        match recover(&disk, store.as_ref()) {
            Err(RecoveryError::CorruptSegment { segment: 0 }) => {}
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
    }
}
