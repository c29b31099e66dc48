//! # cor-pagestore
//!
//! Page-storage substrate for the complex-object representation study
//! (Jhingran & Stonebraker, ICDE 1990). The paper ran its experiments on
//! commercial INGRES, which it used purely as a page-I/O engine: 2 KB data
//! pages behind a 100-page main-memory buffer, with the *number of page
//! transfers* as the performance yardstick.
//!
//! This crate rebuilds exactly that substrate:
//!
//! * [`page`] — 2 KB slotted pages holding variable-length records;
//! * [`disk`] — page stores ([`disk::MemDisk`] for exact, noise-free
//!   transfer counting; [`disk::FileDisk`] for real files);
//! * [`buffer`] — a lock-striped buffer pool that counts every transfer
//!   crossing its boundary (single-shard mode reproduces the paper's
//!   global-LRU counts exactly; more shards serve concurrent streams);
//! * [`policy`] — the two replacement policies (LRU, the paper's, and
//!   the scan-resistant SIEVE), with O(1) eviction over an intrusive
//!   recency list;
//! * [`stats`] — shared I/O counters with snapshot/delta support, used to
//!   split query cost into the paper's `ParCost` and `ChildCost`;
//! * [`telemetry`] — opt-in per-shard behaviour counters (hits, misses,
//!   evictions, write-backs, pin waits) that never perturb the [`stats`]
//!   transfer counts;
//! * [`wal`] — the write-ahead-log seam: per-page LSNs and the
//!   [`wal::WalHook`] through which the pool logs mutations and enforces
//!   WAL-before-data (the log implementation lives in `cor-wal`);
//! * [`aio`] — the retired `cor-aio` asynchronous submission layer, a
//!   completion-queue model over any [`disk::DiskManager`]. Nothing in
//!   the workspace reads through it any more: the pool reads
//!   synchronously (DESIGN.md §13). The module, its re-exports and the
//!   `IoStats::aio_*` counters stay for one caller, the frozen
//!   `benchmark/src/probes.rs` and its `aio.submit_wait_ns_per_page`
//!   row; the next `benchmark` PR drops the row and this module goes
//!   with it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aio;
pub mod buffer;
pub mod disk;
pub mod page;
pub mod policy;
mod shard;
pub mod stats;
pub mod telemetry;
pub mod wal;

pub use aio::{AioBackend, AioConfig, AioEngine, Completion, SubmissionTicket, TicketStatus};
pub use buffer::{BufferError, BufferPool, BufferPoolBuilder, DEFAULT_POOL_PAGES};
pub use disk::{
    sync_dir, DiskError, DiskManager, Durability, FaultMode, FaultyDisk, FileDisk, MemDisk,
};
pub use page::{
    PageBuf, PageError, PageId, PageMut, PageView, SlotId, MAX_RECORD, NO_PAGE, PAGE_SIZE,
};
pub use policy::ReplacementPolicy;
pub use stats::{IoDelta, IoSnapshot, IoStats};
pub use telemetry::{ShardTelemetry, ShardTelemetrySnapshot};
pub use wal::{Lsn, WalHook, NO_LSN};
