//! Log stores: where the serialized record stream physically lives.
//!
//! A log is an ordered list of append-only *segments*; a segment is
//! named by the LSN of the first record it holds. The
//! [`Wal`](crate::Wal) rotates to a fresh segment when the active one passes
//! the configured size, and checkpoints garbage-collect whole segments
//! whose every record precedes the redo horizon.
//!
//! [`MemLogStore`] models a real disk's durability semantics precisely
//! enough for crash testing: appended bytes sit in a volatile tail until
//! [`sync`](LogStore::sync) advances the durable watermark, and
//! [`crash`](MemLogStore::crash) discards everything above it — exactly
//! what a power failure does to an OS page cache. [`FileLogStore`] is
//! the real thing: one file per segment, `fdatasync` on sync.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use cor_pagestore::wal::Lsn;

/// Storage backend for the serialized log stream.
pub trait LogStore: Send + Sync {
    /// Append bytes to the active segment. Not necessarily durable until
    /// [`sync`](Self::sync).
    fn append(&self, bytes: &[u8]) -> io::Result<()>;

    /// Make every appended byte durable.
    fn sync(&self) -> io::Result<()>;

    /// Close the active segment and open a new one whose first record
    /// will carry `first_lsn`.
    fn rotate(&self, first_lsn: Lsn) -> io::Result<()>;

    /// Delete whole segments that only contain records with LSN below
    /// `lsn` (i.e. segments whose *successor's* first LSN is `<= lsn`).
    /// The active segment is never deleted. Returns how many segments
    /// were removed.
    fn gc_before(&self, lsn: Lsn) -> io::Result<usize>;

    /// The surviving segments' *durable* contents, in log order.
    /// Recovery reads this; bytes appended but never synced may or may
    /// not appear depending on the store (a real file store cannot know
    /// what the kernel already wrote out — [`MemLogStore`] models the
    /// worst case after [`crash`](MemLogStore::crash)).
    fn read_segments(&self) -> io::Result<Vec<Vec<u8>>>;

    /// Number of live segments.
    fn segment_count(&self) -> usize;

    /// Human-readable location for error messages ("mem-log", a
    /// directory path, ...).
    fn describe(&self) -> String;
}

struct MemSegment {
    first_lsn: Lsn,
    data: Vec<u8>,
    /// Bytes below this watermark survive a crash.
    durable_len: usize,
}

/// In-memory log store with an explicit durable watermark per segment,
/// for crash testing without touching the filesystem.
pub struct MemLogStore {
    segments: Mutex<Vec<MemSegment>>,
}

impl MemLogStore {
    /// Create a store with one empty active segment (first LSN 1).
    pub fn new() -> Self {
        MemLogStore {
            segments: Mutex::new(vec![MemSegment {
                first_lsn: 1,
                data: Vec::new(),
                durable_len: 0,
            }]),
        }
    }

    /// Simulate a power failure: every byte above each segment's durable
    /// watermark is lost, exactly as an unsynced OS page cache would be.
    pub fn crash(&self) {
        let mut segs = self.segments.lock();
        for s in segs.iter_mut() {
            s.data.truncate(s.durable_len);
        }
    }

    /// Simulate a torn log sector: crash, then additionally lose the
    /// last `n` *durable* bytes of the final segment (a sector the drive
    /// claimed to have written but tore). Recovery must cope via CRC.
    pub fn crash_torn(&self, n: usize) {
        self.crash();
        let mut segs = self.segments.lock();
        if let Some(last) = segs.last_mut() {
            let keep = last.data.len().saturating_sub(n);
            last.data.truncate(keep);
            last.durable_len = keep;
        }
    }

    /// Bytes appended but not yet durable (across all segments).
    pub fn unsynced_bytes(&self) -> usize {
        self.segments
            .lock()
            .iter()
            .map(|s| s.data.len() - s.durable_len)
            .sum()
    }
}

impl Default for MemLogStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LogStore for MemLogStore {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut segs = self.segments.lock();
        segs.last_mut()
            .expect("store always has an active segment")
            .data
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let mut segs = self.segments.lock();
        for s in segs.iter_mut() {
            s.durable_len = s.data.len();
        }
        Ok(())
    }

    fn rotate(&self, first_lsn: Lsn) -> io::Result<()> {
        // A rotation implies the previous segment is complete; real file
        // systems persist a closed file's contents once synced, and the
        // Wal syncs before rotating.
        let mut segs = self.segments.lock();
        segs.push(MemSegment {
            first_lsn,
            data: Vec::new(),
            durable_len: 0,
        });
        Ok(())
    }

    fn gc_before(&self, lsn: Lsn) -> io::Result<usize> {
        let mut segs = self.segments.lock();
        let mut removed = 0;
        while segs.len() >= 2 && segs[1].first_lsn <= lsn {
            segs.remove(0);
            removed += 1;
        }
        Ok(removed)
    }

    fn read_segments(&self) -> io::Result<Vec<Vec<u8>>> {
        Ok(self
            .segments
            .lock()
            .iter()
            .map(|s| s.data.clone())
            .collect())
    }

    fn segment_count(&self) -> usize {
        self.segments.lock().len()
    }

    fn describe(&self) -> String {
        "mem-log".to_string()
    }
}

struct FileLogInner {
    /// `(first_lsn, path)` in log order; the last entry is active.
    segments: Vec<(Lsn, PathBuf)>,
    active: File,
}

/// File-backed log store: one `wal-{first_lsn:010}.seg` file per segment
/// under a directory, `fdatasync` on [`sync`](LogStore::sync).
pub struct FileLogStore {
    dir: PathBuf,
    inner: Mutex<FileLogInner>,
}

impl FileLogStore {
    /// Open (or create) the log directory. Existing `wal-*.seg` files
    /// are adopted in name order and appending continues into the last
    /// one; an empty directory starts a segment with first LSN 1.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut segments: Vec<(Lsn, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(lsn) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|digits| digits.parse::<Lsn>().ok())
            {
                segments.push((lsn, path));
            }
        }
        segments.sort_unstable();
        if segments.is_empty() {
            segments.push((1, Self::segment_path(dir, 1)));
        }
        let (_, active_path) = segments.last().expect("at least one segment");
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(active_path)?;
        // The open may have created the directory and/or the first
        // segment file; pin both entries down before any append is
        // acknowledged against this store.
        Self::sync_dir(dir)?;
        Ok(FileLogStore {
            dir: dir.to_path_buf(),
            inner: Mutex::new(FileLogInner { segments, active }),
        })
    }

    fn segment_path(dir: &Path, first_lsn: Lsn) -> PathBuf {
        dir.join(format!("wal-{first_lsn:010}.seg"))
    }

    /// Fsync the log directory itself. `fdatasync` on a segment file
    /// makes its *contents* durable, but the directory entry naming it is
    /// separate metadata: without this, a power loss can make a fully
    /// synced segment vanish from the directory (truncating the log) or
    /// resurrect a GC'd one. Called after every create and unlink.
    fn sync_dir(dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

impl LogStore for FileLogStore {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().active.write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.lock().active.sync_data()
    }

    fn rotate(&self, first_lsn: Lsn) -> io::Result<()> {
        let mut inner = self.inner.lock();
        // The closed segment must be fully on disk before we move on.
        inner.active.sync_data()?;
        let path = Self::segment_path(&self.dir, first_lsn);
        inner.active = OpenOptions::new().create(true).append(true).open(&path)?;
        // Make the new segment's directory entry durable: a synced
        // segment that is missing from the directory after power loss
        // silently truncates the log.
        Self::sync_dir(&self.dir)?;
        inner.segments.push((first_lsn, path));
        Ok(())
    }

    fn gc_before(&self, lsn: Lsn) -> io::Result<usize> {
        let mut inner = self.inner.lock();
        let mut removed = 0;
        while inner.segments.len() >= 2 && inner.segments[1].0 <= lsn {
            let (_, path) = inner.segments.remove(0);
            std::fs::remove_file(path)?;
            removed += 1;
        }
        if removed > 0 {
            // Pin the unlinks down, so a GC'd segment (whose records may
            // predate the checkpoint's horizon) cannot reappear after a
            // crash and confuse a later recovery.
            Self::sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    fn read_segments(&self) -> io::Result<Vec<Vec<u8>>> {
        let inner = self.inner.lock();
        inner
            .segments
            .iter()
            .map(|(_, path)| {
                let mut buf = Vec::new();
                File::open(path)?.read_to_end(&mut buf)?;
                Ok(buf)
            })
            .collect()
    }

    fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    fn describe(&self) -> String {
        self.dir.display().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn LogStore) {
        store.append(b"aaaa").unwrap();
        store.append(b"bbbb").unwrap();
        store.sync().unwrap();
        store.rotate(10).unwrap();
        store.append(b"cccc").unwrap();
        store.sync().unwrap();
        assert_eq!(store.segment_count(), 2);
        let segs = store.read_segments().unwrap();
        assert_eq!(segs, vec![b"aaaabbbb".to_vec(), b"cccc".to_vec()]);

        // GC below the second segment's first LSN removes only the first.
        assert_eq!(store.gc_before(5).unwrap(), 0, "5 < 10: nothing to drop");
        assert_eq!(store.gc_before(10).unwrap(), 1);
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.read_segments().unwrap(), vec![b"cccc".to_vec()]);
        // The active segment is never GC'd.
        assert_eq!(store.gc_before(Lsn::MAX).unwrap(), 0);
        assert_eq!(store.segment_count(), 1);
    }

    #[test]
    fn mem_store_append_rotate_gc() {
        exercise(&MemLogStore::new());
    }

    #[test]
    fn file_store_append_rotate_gc() {
        let dir = std::env::temp_dir().join(format!("cor-walstore-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = FileLogStore::open(&dir).unwrap();
        exercise(&store);
        assert!(store.describe().contains("cor-walstore"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_reopen_adopts_segments_in_order() {
        let dir = std::env::temp_dir().join(format!("cor-walreopen-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let store = FileLogStore::open(&dir).unwrap();
            store.append(b"one").unwrap();
            store.rotate(100).unwrap();
            store.append(b"two").unwrap();
            store.sync().unwrap();
        }
        let store = FileLogStore::open(&dir).unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(
            store.read_segments().unwrap(),
            vec![b"one".to_vec(), b"two".to_vec()]
        );
        // Appends continue into the last segment.
        store.append(b"-more").unwrap();
        assert_eq!(store.read_segments().unwrap()[1], b"two-more".to_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_crash_loses_unsynced_tail() {
        let store = MemLogStore::new();
        store.append(b"durable").unwrap();
        store.sync().unwrap();
        store.append(b"-volatile").unwrap();
        assert_eq!(store.unsynced_bytes(), 9);
        store.crash();
        assert_eq!(store.read_segments().unwrap(), vec![b"durable".to_vec()]);
        assert_eq!(store.unsynced_bytes(), 0);
    }

    #[test]
    fn mem_store_torn_crash_chops_durable_bytes_too() {
        let store = MemLogStore::new();
        store.append(b"0123456789").unwrap();
        store.sync().unwrap();
        store.append(b"lost-anyway").unwrap();
        store.crash_torn(4);
        assert_eq!(store.read_segments().unwrap(), vec![b"012345".to_vec()]);
    }
}
