//! Disk managers: the raw page stores beneath the buffer pool.
//!
//! The paper's experiments measured I/O counts on a ~10 MB INGRES database.
//! Since the yardstick is the *number of page transfers*, not seconds, the
//! default store is [`MemDisk`], an in-memory page vector that gives exact,
//! noise-free transfer counts. [`FileDisk`] is a real file-backed store for
//! anyone who wants wall-clock numbers on actual hardware.
//!
//! For crash-recovery testing, [`FaultyDisk`] wraps any store and injects
//! faults at a chosen operation ordinal: dropped writes (process dies with
//! the write never reaching the medium), torn writes (power fails mid-
//! sector), fail-stop (the write lands, then the process dies — the oracle
//! side of the crashtest harness), and short reads.

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from disk-manager operations.
#[derive(Debug)]
pub enum DiskError {
    /// A page id past the end of the store was referenced.
    BadPage(PageId),
    /// Underlying file I/O failed, with the operation and the path (or
    /// store description) it failed on.
    Io {
        /// What the store was doing: `"read"`, `"write"`, `"allocate"`,
        /// `"sync"`, `"wal append"`, ...
        op: &'static str,
        /// The file path or store description the operation targeted.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// An injected fault killed the store ([`FaultyDisk`] only). Every
    /// operation after a crash fault fails with this — the process is
    /// "dead" until the harness recovers from the log.
    Crashed,
}

impl DiskError {
    /// Build an [`Io`](DiskError::Io) with operation and path context.
    pub fn io(op: &'static str, path: impl Into<String>, source: std::io::Error) -> Self {
        DiskError::Io {
            op,
            path: path.into(),
            source,
        }
    }
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::BadPage(p) => write!(f, "page {p} out of range"),
            DiskError::Io { op, path, source } => {
                write!(f, "I/O error during {op} on {path}: {source}")
            }
            DiskError::Crashed => write!(f, "store crashed (injected fault)"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// When a [`FileDisk`] forces written pages down to the storage medium.
///
/// The paper's I/O-count yardstick is unaffected either way; this matters
/// only for crash durability of file-backed stores and for wall-clock
/// honesty when benchmarking real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Leave flushing to the OS page cache (the historical behaviour).
    #[default]
    OsCache,
    /// `fdatasync` on every [`DiskManager::sync`] call. The buffer pool
    /// never makes that call (neither `flush_all` nor `flush_page` syncs
    /// the store), so only a caller that syncs the disk itself gets the
    /// fsync.
    Fsync,
}

/// A store of fixed-size pages addressed by [`PageId`].
///
/// Implementations do **not** count I/O themselves; the buffer pool counts
/// transfers as they cross its boundary, which matches how the paper
/// measured traffic below the INGRES buffer.
///
/// `Send + Sync` so a buffer pool can be shared across threads behind an
/// `Arc` (parallel experiment sweeps give each worker its own pool, but
/// nothing prevents sharing one).
pub trait DiskManager: Send + Sync {
    /// Read page `id` into `buf`.
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError>;
    /// Read a batch of pages: `ids[i]` into `bufs[i]`. Returns the number
    /// of physical submissions the batch cost (for the default
    /// one-read-per-page loop that is `ids.len()`; stores that coalesce
    /// adjacent pages report the number of coalesced runs instead).
    /// The buffer pool reads page-at-a-time through [`read_page`]; the
    /// standalone [`AioEngine`](crate::aio::AioEngine) is the remaining
    /// caller, one call per run.
    ///
    /// [`read_page`]: DiskManager::read_page
    ///
    /// Callers get the best coalescing from **sorted, deduplicated** ids,
    /// but any order is legal and duplicates are simply read twice.
    ///
    /// # Partial failure
    ///
    /// On `Err`, the contents of `bufs` are unspecified: implementations
    /// may have filled a prefix (the default loop), everything (a late
    /// validation failure), or nothing ([`FileDisk`] validates all ids
    /// before issuing any I/O). Callers must treat a failed batch as if
    /// **no** page was transferred — the aio engine poisons the run's
    /// ticket and hands out no bytes.
    fn read_pages(&self, ids: &[PageId], bufs: &mut [&mut PageBuf]) -> Result<usize, DiskError> {
        debug_assert_eq!(ids.len(), bufs.len(), "one buffer per requested page");
        for (&id, buf) in ids.iter().zip(bufs.iter_mut()) {
            self.read_page(id, buf)?;
        }
        Ok(ids.len())
    }
    /// Write `buf` to page `id`.
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError>;
    /// Append a zeroed page, returning its id.
    fn allocate_page(&self) -> Result<PageId, DiskError>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;
    /// Force previously written pages down to the storage medium. A no-op
    /// for stores without a medium to sync ([`MemDisk`]) or with
    /// [`Durability::OsCache`].
    fn sync(&self) -> Result<(), DiskError> {
        Ok(())
    }
}

/// Shared handles delegate, so a caller can keep a reference to a store
/// (to arm faults on it, or to inspect the medium after a crash) while
/// the buffer pool owns a `Box<Arc<...>>` of the same store.
impl<D: DiskManager + ?Sized> DiskManager for std::sync::Arc<D> {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        (**self).read_page(id, buf)
    }
    fn read_pages(&self, ids: &[PageId], bufs: &mut [&mut PageBuf]) -> Result<usize, DiskError> {
        (**self).read_pages(ids, bufs)
    }
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        (**self).write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId, DiskError> {
        (**self).allocate_page()
    }
    fn num_pages(&self) -> u32 {
        (**self).num_pages()
    }
    fn sync(&self) -> Result<(), DiskError> {
        (**self).sync()
    }
}

/// In-memory page store.
pub struct MemDisk {
    pages: Mutex<Vec<PageBuf>>,
}

impl MemDisk {
    /// Create an empty in-memory store.
    pub fn new() -> Self {
        MemDisk {
            pages: Mutex::new(Vec::new()),
        }
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of maximal runs of consecutive ascending page ids in `ids`
/// (`ids[i+1] == ids[i] + 1` continues a run). This is how many physical
/// submissions a coalescing store needs for the batch.
fn coalesced_runs(ids: &[PageId]) -> usize {
    let mut runs = 0usize;
    let mut prev: Option<PageId> = None;
    for &id in ids {
        let continues_run = prev.is_some() && prev == id.checked_sub(1);
        if !continues_run {
            runs += 1;
        }
        prev = Some(id);
    }
    runs
}

impl DiskManager for MemDisk {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        let pages = self.pages.lock();
        let page = pages.get(id as usize).ok_or(DiskError::BadPage(id))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    /// One lock acquisition for the whole batch. Ids are validated before
    /// any byte is copied, so a failed batch transfers nothing. Reports
    /// the run count a coalescing store would have needed, the same
    /// accounting FileDisk reports.
    fn read_pages(&self, ids: &[PageId], bufs: &mut [&mut PageBuf]) -> Result<usize, DiskError> {
        debug_assert_eq!(ids.len(), bufs.len(), "one buffer per requested page");
        let pages = self.pages.lock();
        if let Some(&bad) = ids.iter().find(|&&id| id as usize >= pages.len()) {
            return Err(DiskError::BadPage(bad));
        }
        for (&id, buf) in ids.iter().zip(bufs.iter_mut()) {
            buf.copy_from_slice(&pages[id as usize][..]);
        }
        Ok(coalesced_runs(ids))
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        let mut pages = self.pages.lock();
        let page = pages.get_mut(id as usize).ok_or(DiskError::BadPage(id))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId, DiskError> {
        let mut pages = self.pages.lock();
        let id = pages.len() as PageId;
        pages.push([0u8; PAGE_SIZE]);
        Ok(id)
    }

    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }
}

/// File-backed page store using positioned I/O.
///
/// Reads and writes go through pread/pwrite-style positioned calls that
/// take `&File` and carry their own offset, so concurrent buffer-pool
/// shards never serialize on a file lock and never pay a seek syscall.
/// The only remaining lock guards `allocate_page`'s length bookkeeping.
pub struct FileDisk {
    file: File,
    num_pages: Mutex<u32>,
    durability: Durability,
    path: String,
    /// Non-positioned fallback for platforms without `FileExt` pread:
    /// serializes seek+read pairs exactly like the historical code.
    #[cfg(not(unix))]
    io_lock: Mutex<()>,
}

impl FileDisk {
    /// Open (or create) a page file at `path` with default (OS page
    /// cache) durability.
    pub fn open(path: &Path) -> Result<Self, DiskError> {
        Self::open_with(path, Durability::default())
    }

    /// Open (or create) a page file at `path` with an explicit
    /// [`Durability`] policy.
    pub fn open_with(path: &Path, durability: Durability) -> Result<Self, DiskError> {
        let display = path.display().to_string();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| DiskError::io("open", &display, e))?;
        let len = file
            .metadata()
            .map_err(|e| DiskError::io("stat", &display, e))?
            .len();
        let num_pages = (len / PAGE_SIZE as u64) as u32;
        Ok(FileDisk {
            file,
            num_pages: Mutex::new(num_pages),
            durability,
            path: display,
            #[cfg(not(unix))]
            io_lock: Mutex::new(()),
        })
    }

    /// Positioned read of `buf.len()` bytes at byte offset `off`.
    #[cfg(unix)]
    fn pread(&self, buf: &mut [u8], off: u64, op: &'static str) -> Result<(), DiskError> {
        use std::os::unix::fs::FileExt;
        self.file
            .read_exact_at(buf, off)
            .map_err(|e| DiskError::io(op, &self.path, e))
    }

    /// Positioned write of `buf` at byte offset `off`.
    #[cfg(unix)]
    fn pwrite(&self, buf: &[u8], off: u64, op: &'static str) -> Result<(), DiskError> {
        use std::os::unix::fs::FileExt;
        self.file
            .write_all_at(buf, off)
            .map_err(|e| DiskError::io(op, &self.path, e))
    }

    #[cfg(not(unix))]
    fn pread(&self, buf: &mut [u8], off: u64, op: &'static str) -> Result<(), DiskError> {
        use std::io::{Read, Seek, SeekFrom};
        let _guard = self.io_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off))
            .map_err(|e| DiskError::io(op, &self.path, e))?;
        f.read_exact(buf)
            .map_err(|e| DiskError::io(op, &self.path, e))
    }

    #[cfg(not(unix))]
    fn pwrite(&self, buf: &[u8], off: u64, op: &'static str) -> Result<(), DiskError> {
        use std::io::{Seek, SeekFrom, Write};
        let _guard = self.io_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off))
            .map_err(|e| DiskError::io(op, &self.path, e))?;
        f.write_all(buf)
            .map_err(|e| DiskError::io(op, &self.path, e))
    }

    #[inline]
    fn byte_offset(id: PageId) -> u64 {
        id as u64 * PAGE_SIZE as u64
    }
}

impl DiskManager for FileDisk {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        if id >= self.num_pages() {
            return Err(DiskError::BadPage(id));
        }
        self.pread(buf, Self::byte_offset(id), "read")
    }

    /// Coalesce maximal runs of consecutive ascending page ids into single
    /// positioned reads: a sorted batch of `n` adjacent pages costs one
    /// `n * PAGE_SIZE` pread instead of `n` page-sized ones. All ids are
    /// validated against the store length **before any I/O is issued**, so
    /// a [`DiskError::BadPage`] batch transfers nothing.
    fn read_pages(&self, ids: &[PageId], bufs: &mut [&mut PageBuf]) -> Result<usize, DiskError> {
        debug_assert_eq!(ids.len(), bufs.len(), "one buffer per requested page");
        let num_pages = self.num_pages();
        if let Some(&bad) = ids.iter().find(|&&id| id >= num_pages) {
            return Err(DiskError::BadPage(bad));
        }
        let mut runs = 0usize;
        let mut i = 0usize;
        let mut scratch: Vec<u8> = Vec::new();
        while i < ids.len() {
            // Extend the run while page ids stay consecutive.
            let mut j = i + 1;
            while j < ids.len() && ids[j] == ids[j - 1] + 1 {
                j += 1;
            }
            let run_len = j - i;
            if run_len == 1 {
                self.pread(&mut bufs[i][..], Self::byte_offset(ids[i]), "read")?;
            } else {
                scratch.resize(run_len * PAGE_SIZE, 0);
                self.pread(&mut scratch, Self::byte_offset(ids[i]), "read")?;
                for (k, buf) in bufs[i..j].iter_mut().enumerate() {
                    buf.copy_from_slice(&scratch[k * PAGE_SIZE..(k + 1) * PAGE_SIZE]);
                }
            }
            runs += 1;
            i = j;
        }
        Ok(runs)
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        if id >= self.num_pages() {
            return Err(DiskError::BadPage(id));
        }
        self.pwrite(buf, Self::byte_offset(id), "write")
    }

    fn allocate_page(&self) -> Result<PageId, DiskError> {
        // The length lock makes (extend file, bump count) atomic against
        // concurrent allocations; reads and writes never take it.
        let mut n = self.num_pages.lock();
        let id = *n;
        self.pwrite(&[0u8; PAGE_SIZE], Self::byte_offset(id), "allocate")?;
        *n += 1;
        Ok(id)
    }

    fn num_pages(&self) -> u32 {
        *self.num_pages.lock()
    }

    fn sync(&self) -> Result<(), DiskError> {
        if self.durability == Durability::Fsync {
            self.file
                .sync_data()
                .map_err(|e| DiskError::io("sync", &self.path, e))?;
        }
        Ok(())
    }
}

/// Fsync the directory `dir` itself. `fdatasync` on a file makes its
/// *contents* durable, but the directory entry naming it is separate
/// metadata: without this, a power loss can make a fully synced file
/// vanish from the directory, or resurrect an unlinked one. Call it after
/// creating or unlinking a file there.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The fault a [`FaultyDisk`] injects when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The trigger write never reaches the inner store; the disk is dead
    /// afterwards (every later operation returns
    /// [`DiskError::Crashed`]). Models a crash *before* the write.
    CrashDrop,
    /// The first `keep` bytes of the trigger write reach the inner store,
    /// the rest keep the page's previous contents; the disk is dead
    /// afterwards. Models a power failure mid-write (torn page).
    CrashTorn {
        /// How many leading bytes of the write survive.
        keep: usize,
    },
    /// The trigger write lands *completely*, then the operation reports
    /// failure once and the fault disarms — the store stays usable. This
    /// is the oracle side of the crashtest protocol: both runs abort on
    /// the same operation, but the oracle's state is intact.
    FailStop,
    /// The trigger *read* fails once (as an [`DiskError::Io`] with
    /// `op = "read"`), then the fault disarms.
    ShortRead,
}

#[derive(Debug)]
struct FaultState {
    /// Remaining operations (writes, or reads for `ShortRead`) before
    /// the fault fires. `None` = disarmed.
    countdown: Option<u64>,
    mode: FaultMode,
    /// Once true, every operation fails with `Crashed`.
    dead: bool,
    /// Total `write_page` calls observed (including after disarm), for
    /// dry runs that size the crash-point space.
    writes_seen: u64,
    /// How many faults have fired.
    fired: u64,
}

/// A [`DiskManager`] wrapper that injects crashes, torn writes, and read
/// errors at a precise operation ordinal.
///
/// Arm it with [`arm`](FaultyDisk::arm): the fault fires on the `nth`
/// *subsequent* write (1-based; or read, for [`FaultMode::ShortRead`]).
/// The crash modes leave the wrapper "dead" so any further pool traffic
/// errors out — exactly what a process that lost power would observe on
/// its next run: nothing, because there is no next operation.
///
/// `read_pages` deliberately keeps the default one-page-at-a-time loop
/// (no coalescing): each page of a batch ticks the fault countdown
/// individually, so crash-point ordinals are stable whether or not the
/// caller batches.
pub struct FaultyDisk<D> {
    inner: D,
    state: Mutex<FaultState>,
    faults_fired: AtomicU64,
}

impl<D: DiskManager> FaultyDisk<D> {
    /// Wrap `inner` with no fault armed.
    pub fn new(inner: D) -> Self {
        FaultyDisk {
            inner,
            state: Mutex::new(FaultState {
                countdown: None,
                mode: FaultMode::FailStop,
                dead: false,
                writes_seen: 0,
                fired: 0,
            }),
            faults_fired: AtomicU64::new(0),
        }
    }

    /// Arm the fault: fire `mode` on the `nth` subsequent qualifying
    /// operation (1-based). Re-arming replaces any pending fault.
    pub fn arm(&self, nth: u64, mode: FaultMode) {
        assert!(nth >= 1, "fault ordinal is 1-based");
        let mut st = self.state.lock();
        st.countdown = Some(nth);
        st.mode = mode;
    }

    /// Disarm any pending fault (the store stays dead if a crash fault
    /// already fired).
    pub fn disarm(&self) {
        self.state.lock().countdown = None;
    }

    /// Has a crash fault fired, leaving the store dead?
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead
    }

    /// Total `write_page` calls observed so far, including while
    /// disarmed. Dry runs use this to size the crash-point space.
    pub fn writes_observed(&self) -> u64 {
        self.state.lock().writes_seen
    }

    /// How many injected faults have fired.
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired.load(Ordering::Relaxed)
    }

    /// The wrapped store (for oracle flushing after a `FailStop`).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Decrement the countdown; returns the mode if the fault fires now.
    fn tick(st: &mut FaultState, is_write: bool) -> Option<FaultMode> {
        let qualifies = match st.mode {
            FaultMode::ShortRead => !is_write,
            _ => is_write,
        };
        if !qualifies {
            return None;
        }
        let n = st.countdown.as_mut()?;
        *n -= 1;
        if *n == 0 {
            st.countdown = None;
            st.fired += 1;
            Some(st.mode)
        } else {
            None
        }
    }
}

impl<D: DiskManager> DiskManager for FaultyDisk<D> {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        let fired = {
            let mut st = self.state.lock();
            if st.dead {
                return Err(DiskError::Crashed);
            }
            Self::tick(&mut st, false)
        };
        if let Some(FaultMode::ShortRead) = fired {
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
            return Err(DiskError::io(
                "read",
                format!("faulty-disk page {id}"),
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "injected short read"),
            ));
        }
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        let fired = {
            let mut st = self.state.lock();
            if st.dead {
                return Err(DiskError::Crashed);
            }
            st.writes_seen += 1;
            let fired = Self::tick(&mut st, true);
            if matches!(
                fired,
                Some(FaultMode::CrashDrop) | Some(FaultMode::CrashTorn { .. })
            ) {
                st.dead = true;
            }
            fired
        };
        match fired {
            None => self.inner.write_page(id, buf),
            Some(FaultMode::CrashDrop) => {
                self.faults_fired.fetch_add(1, Ordering::Relaxed);
                Err(DiskError::Crashed)
            }
            Some(FaultMode::CrashTorn { keep }) => {
                self.faults_fired.fetch_add(1, Ordering::Relaxed);
                // Splice: old page tail survives under the new head.
                let keep = keep.min(PAGE_SIZE);
                let mut torn = [0u8; PAGE_SIZE];
                self.inner.read_page(id, &mut torn)?;
                torn[..keep].copy_from_slice(&buf[..keep]);
                self.inner.write_page(id, &torn)?;
                Err(DiskError::Crashed)
            }
            Some(FaultMode::FailStop) => {
                self.faults_fired.fetch_add(1, Ordering::Relaxed);
                self.inner.write_page(id, buf)?;
                Err(DiskError::io(
                    "write",
                    format!("faulty-disk page {id}"),
                    std::io::Error::other("injected fail-stop (write landed)"),
                ))
            }
            Some(FaultMode::ShortRead) => unreachable!("ShortRead never fires on writes"),
        }
    }

    fn allocate_page(&self) -> Result<PageId, DiskError> {
        if self.state.lock().dead {
            return Err(DiskError::Crashed);
        }
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), DiskError> {
        if self.state.lock().dead {
            return Err(DiskError::Crashed);
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskManager) {
        let p0 = disk.allocate_page().unwrap();
        let p1 = disk.allocate_page().unwrap();
        assert_ne!(p0, p1);
        assert_eq!(disk.num_pages(), 2);

        let mut w = [0u8; PAGE_SIZE];
        w[0] = 0xAB;
        w[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(p1, &w).unwrap();

        let mut r = [0u8; PAGE_SIZE];
        disk.read_page(p1, &mut r).unwrap();
        assert_eq!(r[0], 0xAB);
        assert_eq!(r[PAGE_SIZE - 1], 0xCD);

        // Fresh page is zeroed.
        disk.read_page(p0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn memdisk_roundtrip() {
        roundtrip(&MemDisk::new());
    }

    #[test]
    fn memdisk_rejects_bad_page() {
        let d = MemDisk::new();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(
            d.read_page(0, &mut buf),
            Err(DiskError::BadPage(0))
        ));
        assert!(matches!(d.write_page(7, &buf), Err(DiskError::BadPage(7))));
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("cor-filedisk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        {
            let d = FileDisk::open(&path).unwrap();
            roundtrip(&d);
        }
        // Re-open: pages persist.
        let d = FileDisk::open(&path).unwrap();
        assert_eq!(d.num_pages(), 2);
        let mut r = [0u8; PAGE_SIZE];
        d.read_page(1, &mut r).unwrap();
        assert_eq!(r[0], 0xAB);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filedisk_fsync_durability_syncs_without_error() {
        let dir = std::env::temp_dir().join(format!("cor-filedisk-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let d = FileDisk::open_with(&path, Durability::Fsync).unwrap();
        let p = d.allocate_page().unwrap();
        d.write_page(p, &[9u8; PAGE_SIZE]).unwrap();
        d.sync().unwrap();
        // OsCache mode: sync is a no-op and also succeeds.
        let d2 = FileDisk::open_with(&path, Durability::OsCache).unwrap();
        d2.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_and_io_error_display_carry_context() {
        // Out-of-range: page id appears in the message.
        let d = MemDisk::new();
        let mut buf = [0u8; PAGE_SIZE];
        let e = d.read_page(41, &mut buf).unwrap_err();
        assert_eq!(e.to_string(), "page 41 out of range");

        // FileDisk out-of-range is checked before any file I/O.
        let dir = std::env::temp_dir().join(format!("cor-filedisk-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let d = FileDisk::open(&path).unwrap();
        assert!(matches!(
            d.read_page(3, &mut buf),
            Err(DiskError::BadPage(3))
        ));

        // I/O errors name the op and the path, and expose the source.
        let e = DiskError::io(
            "read",
            path.display().to_string(),
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "boom"),
        );
        let msg = e.to_string();
        assert!(msg.contains("read"), "op missing from: {msg}");
        assert!(msg.contains("pages.db"), "path missing from: {msg}");
        assert!(msg.contains("boom"), "source missing from: {msg}");
        assert!(std::error::Error::source(&e).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_disk_crash_drop_loses_the_write_and_kills_the_store() {
        let d = FaultyDisk::new(MemDisk::new());
        let p = d.allocate_page().unwrap();
        d.write_page(p, &[1u8; PAGE_SIZE]).unwrap();
        d.arm(1, FaultMode::CrashDrop);
        assert!(matches!(
            d.write_page(p, &[2u8; PAGE_SIZE]),
            Err(DiskError::Crashed)
        ));
        assert!(d.is_dead());
        assert_eq!(d.faults_fired(), 1);
        // Everything after the crash fails...
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(d.read_page(p, &mut buf), Err(DiskError::Crashed)));
        assert!(matches!(d.allocate_page(), Err(DiskError::Crashed)));
        assert!(matches!(d.sync(), Err(DiskError::Crashed)));
        // ...but the medium kept the pre-crash version.
        d.inner().read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "dropped write must not reach the medium");
    }

    #[test]
    fn faulty_disk_torn_write_splices_head_onto_old_tail() {
        let d = FaultyDisk::new(MemDisk::new());
        let p = d.allocate_page().unwrap();
        d.write_page(p, &[1u8; PAGE_SIZE]).unwrap();
        d.arm(1, FaultMode::CrashTorn { keep: 512 });
        assert!(matches!(
            d.write_page(p, &[2u8; PAGE_SIZE]),
            Err(DiskError::Crashed)
        ));
        let mut buf = [0u8; PAGE_SIZE];
        d.inner().read_page(p, &mut buf).unwrap();
        assert!(buf[..512].iter().all(|&b| b == 2), "new head");
        assert!(buf[512..].iter().all(|&b| b == 1), "old tail");
    }

    #[test]
    fn faulty_disk_fail_stop_lands_the_write_then_disarms() {
        let d = FaultyDisk::new(MemDisk::new());
        let p = d.allocate_page().unwrap();
        d.arm(2, FaultMode::FailStop);
        d.write_page(p, &[1u8; PAGE_SIZE]).unwrap(); // countdown 2 -> 1
        let e = d.write_page(p, &[2u8; PAGE_SIZE]).unwrap_err();
        assert!(e.to_string().contains("fail-stop"), "got: {e}");
        assert!(!d.is_dead());
        // The write landed, and the store works again (disarmed).
        let mut buf = [0u8; PAGE_SIZE];
        d.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        d.write_page(p, &[3u8; PAGE_SIZE]).unwrap();
        assert_eq!(d.writes_observed(), 3);
    }

    /// Write `n` pages stamped with their own id, return the ids.
    fn fill(disk: &dyn DiskManager, n: u32) -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let p = disk.allocate_page().unwrap();
                let mut buf = [0u8; PAGE_SIZE];
                buf[0] = i as u8;
                buf[PAGE_SIZE - 1] = !(i as u8);
                disk.write_page(p, &buf).unwrap();
                p
            })
            .collect()
    }

    fn read_batch(disk: &dyn DiskManager, ids: &[PageId]) -> (Vec<PageBuf>, usize) {
        let mut bufs = vec![[0u8; PAGE_SIZE]; ids.len()];
        let runs = {
            let mut refs: Vec<&mut PageBuf> = bufs.iter_mut().collect();
            disk.read_pages(ids, &mut refs).unwrap()
        };
        (bufs, runs)
    }

    fn check_read_pages_matches_single_reads(disk: &dyn DiskManager) {
        let pids = fill(disk, 8);
        // Sorted contiguous, with gaps, duplicates, and descending ids.
        let batches: Vec<Vec<PageId>> = vec![
            pids.clone(),
            vec![pids[0], pids[2], pids[3], pids[7]],
            vec![pids[5], pids[5], pids[1]],
            vec![pids[6], pids[4], pids[2], pids[0]],
            vec![],
        ];
        for ids in batches {
            let (bufs, runs) = read_batch(disk, &ids);
            assert_eq!(runs, coalesced_runs(&ids), "run accounting for {ids:?}");
            for (&id, got) in ids.iter().zip(&bufs) {
                let mut want = [0u8; PAGE_SIZE];
                disk.read_page(id, &mut want).unwrap();
                assert_eq!(got[..], want[..], "page {id} differs from single read");
            }
        }
    }

    #[test]
    fn memdisk_read_pages_matches_single_reads() {
        check_read_pages_matches_single_reads(&MemDisk::new());
    }

    #[test]
    fn filedisk_read_pages_matches_single_reads() {
        let dir = std::env::temp_dir().join(format!("cor-filedisk-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = FileDisk::open(&dir.join("pages.db")).unwrap();
        check_read_pages_matches_single_reads(&d);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coalesced_runs_counts_maximal_ascending_runs() {
        assert_eq!(coalesced_runs(&[]), 0);
        assert_eq!(coalesced_runs(&[0]), 1);
        assert_eq!(coalesced_runs(&[0, 1, 2, 3]), 1);
        assert_eq!(coalesced_runs(&[0, 1, 3, 4, 9]), 3);
        assert_eq!(
            coalesced_runs(&[3, 2, 1, 0]),
            4,
            "descending never coalesces"
        );
        assert_eq!(coalesced_runs(&[5, 5, 6]), 2, "duplicate breaks the run");
    }

    #[test]
    fn read_pages_bad_page_transfers_nothing_on_validating_stores() {
        let dir = std::env::temp_dir().join(format!("cor-filedisk-badp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file_disk = FileDisk::open(&dir.join("pages.db")).unwrap();
        let mem_disk = MemDisk::new();
        for disk in [&file_disk as &dyn DiskManager, &mem_disk] {
            let pids = fill(disk, 3);
            let bad = disk.num_pages();
            let ids = vec![pids[0], bad, pids[1]];
            let mut bufs = vec![[0xEEu8; PAGE_SIZE]; ids.len()];
            let mut refs: Vec<&mut PageBuf> = bufs.iter_mut().collect();
            let err = disk.read_pages(&ids, &mut refs).unwrap_err();
            assert!(matches!(err, DiskError::BadPage(b) if b == bad));
            // Ids are validated before any I/O: nothing was copied.
            for buf in &bufs {
                assert!(buf.iter().all(|&b| b == 0xEE), "buffer touched on failure");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_disk_batches_tick_short_read_per_page() {
        // The 3rd read faults, whether reads arrive singly or batched:
        // batches must not perturb crash-point ordinals.
        let d = FaultyDisk::new(MemDisk::new());
        let pids = fill(&d, 4);
        d.arm(3, FaultMode::ShortRead);
        let mut bufs = vec![[0u8; PAGE_SIZE]; 4];
        let mut refs: Vec<&mut PageBuf> = bufs.iter_mut().collect();
        let err = d.read_pages(&pids, &mut refs).unwrap_err();
        assert!(err.to_string().contains("short read"), "{err}");
        assert_eq!(d.faults_fired(), 1);
        // Disarmed afterwards: the whole batch succeeds.
        let (bufs, _) = read_batch(&d, &pids);
        assert_eq!(bufs[3][0], 3);
    }

    #[test]
    fn faulty_disk_short_read_fires_on_reads_only_then_disarms() {
        let d = FaultyDisk::new(MemDisk::new());
        let p = d.allocate_page().unwrap();
        d.arm(1, FaultMode::ShortRead);
        // Writes never trigger a ShortRead fault.
        d.write_page(p, &[7u8; PAGE_SIZE]).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        let e = d.read_page(p, &mut buf).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("read") && msg.contains("short read"), "{msg}");
        // Disarmed: next read succeeds.
        d.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }
}
