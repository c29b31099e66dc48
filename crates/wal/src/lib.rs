//! Write-ahead logging and ARIES-lite crash recovery for the complex
//! object store.
//!
//! The crate provides the durability half of the WAL protocol whose
//! enforcement half lives in `cor-pagestore` (per-page LSNs, the
//! [`WalHook`] seam, and the
//! WAL-before-data flush rule inside the buffer pool):
//!
//! * [`record`] — the on-log record format: CRC-framed full-page
//!   images, byte-range deltas, and checkpoint records.
//! * [`store`] — where the byte stream lives: [`MemLogStore`] (crash
//!   simulation with a durable watermark) and [`FileLogStore`]
//!   (segment files + `fdatasync`).
//! * [`log`] — [`Wal`], the append path: group commit via
//!   [`FsyncPolicy`], PostgreSQL-style full-page-write tracking,
//!   segment rotation, and checkpoint-driven garbage collection.
//! * [`recovery`] — [`recover`], the redo-only replay pass that
//!   rebuilds pages byte-identically after a crash.
//! * [`crc`] — the self-contained CRC-32 used by the record framing.
//!
//! The intended wiring: build a [`Wal`] over a [`LogStore`], hand it to
//! the buffer pool as its `WalHook`, call
//! [`Wal::checkpoint`] periodically with the pool's dirty-page table,
//! and after a crash run [`recover`] over the surviving store before
//! reopening.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod log;
pub mod record;
pub mod recovery;
pub mod store;

pub use cor_pagestore::wal::{Lsn, WalHook, NO_LSN};
pub use log::{CheckpointInfo, FsyncPolicy, Wal, WalConfig, WalStatsSnapshot};
pub use record::{decode_stream, DecodedStream, Record, RecordBody};
pub use recovery::{recover, RecoveryError, RecoveryStats};
pub use store::{FileLogStore, LogStore, MemLogStore};
