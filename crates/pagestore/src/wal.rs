//! Write-ahead-log integration hook.
//!
//! The buffer pool enforces the WAL protocol but does not implement the
//! log itself — that lives in the `cor-wal` crate, which depends on this
//! one. The seam between them is [`WalHook`]:
//!
//! * after every mutating page closure, the pool hands the hook the
//!   before- and after-images and stamps the returned [`Lsn`] into the
//!   page header (bytes 12..16, the formerly reserved word — unused by
//!   both the slotted and the B-tree node layouts);
//! * the hook also returns the LSN of the page's full image in the
//!   current full-page-write epoch (one checkpoint interval). A frame
//!   dirtied from clean takes that image LSN as its recLSN, so every
//!   checkpoint's redo horizon stays at or below the image a torn
//!   write-back of the page would need;
//! * before any dirty page reaches the disk manager (eviction,
//!   [`flush_page`](crate::BufferPool::flush_page), `flush_all`), the
//!   pool calls [`WalHook::flush_to`] with that page's LSN — the
//!   *WAL-before-data* rule: no page version may hit the store before
//!   the log records that produced it are durable.
//!
//! A write-back is not reported to the log: the page is imaged once per
//! epoch, not once per dirty period, and redo from a horizon at or
//! below that image repairs a torn write-back.
//!
//! A pool built without a hook behaves — and performs — exactly as
//! before: page bytes, I/O counts, and eviction order are untouched.

use crate::disk::DiskError;
use crate::page::{PageBuf, PageId};

/// Log sequence number: a 1-based record ordinal, strictly increasing in
/// log order. `u32` bounds one log lineage at ~4.29 billion records
/// (see `docs/durability.md` for the rationale and escape hatch).
pub type Lsn = u32;

/// The LSN of a page that has never been logged (fresh or pre-WAL).
pub const NO_LSN: Lsn = 0;

/// The buffer pool's view of a write-ahead log.
///
/// Implemented by `cor_wal::Wal`; the pool only needs these three
/// operations to uphold the WAL invariants described in the module docs.
pub trait WalHook: Send + Sync {
    /// Log one page mutation: `before` and `after` are the full page
    /// contents around the mutating closure (LSN word not yet restamped).
    /// Returns `(record LSN, image LSN)`: the LSN of the record just
    /// appended, and the LSN of the page's full image in the current
    /// full-page-write epoch (the same LSN when this record is that
    /// image). The implementation chooses the physical format (full
    /// image vs byte-range delta).
    fn log_page_write(
        &self,
        pid: PageId,
        before: &PageBuf,
        after: &PageBuf,
    ) -> Result<(Lsn, Lsn), DiskError>;

    /// Log a full after-image unconditionally (used for freshly allocated
    /// pages, whose prior frame contents are garbage and must not be
    /// diffed against).
    fn log_page_image(&self, pid: PageId, image: &PageBuf) -> Result<Lsn, DiskError>;

    /// Make the log durable at least up to `lsn` (inclusive). Called by
    /// the pool immediately before writing a page stamped with `lsn` to
    /// the disk manager.
    fn flush_to(&self, lsn: Lsn) -> Result<(), DiskError>;
}
