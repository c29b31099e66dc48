//! B+trees over fixed-length byte-comparable keys.
//!
//! The paper structures `ParentRel` and `ChildRel` as B-trees on OID (which
//! "facilitates the merge-join in BFS") and `ClusterRel` as a B-tree on
//! `cluster#`. Keys here are fixed-length byte strings whose byte order is
//! the logical order (see [`cor_relational::Oid::to_key_bytes`]); values are
//! variable-length records.
//!
//! Node layout (2 KB page, custom — not the slotted layout):
//!
//! ```text
//! 0..2   count            number of entries
//! 2..4   free_end         start of the entry heap (grows down)
//! 4..8   flags            bit 0: leaf
//! 8..12  next             leaf: next-leaf chain; internal: leftmost child
//! 12..16 reserved
//! 16..   directory        4 B per entry: offset u16, vlen u16, sorted by key
//! ...    free space
//! ...    entry heap       each entry: key (key_len B) then value (vlen B)
//! ```
//!
//! A point lookup ([`BTreeFile::get_with`]) pins each level once and
//! searches the leaf under the descent's own pin: `height` pins. A point
//! update ([`BTreeFile::update_with`]) is the same descent plus one write
//! pin on the leaf, where the caller's closure patches the value in place
//! or hands back a replacement: `height + 1` pins, and an absent key
//! dirties nothing. Only a replacement the leaf has no room for goes back
//! to the root, through the insert path's split.
//!
//! Inserts are upserts (a second insert of the same key replaces the
//! value). Deletes merge underfull nodes with a sibling when the pair
//! fits in one page and collapse the root as levels empty — the paper's
//! workloads never shrink relations ("in our environment there are no
//! insertions or deletions"), but a production library must.

use crate::sync_cell::SyncCell;
use crate::AccessError;
use cor_obs::{Phase, PhaseGuard};
use cor_pagestore::{BufferError, BufferPool, PageBuf, PageId, NO_PAGE, PAGE_SIZE};
use std::sync::Arc;

const HDR: usize = 16;
const DIR: usize = 4;

/// Largest `key + value` size insertable into a B-tree (guarantees any
/// split leaves room for two entries per node).
pub const MAX_BTREE_ENTRY: usize = (PAGE_SIZE - HDR) / 2 - DIR;

/// Default leaf fill fraction for bulk loads, mimicking a freshly
/// `modify`-ed INGRES B-tree.
pub const DEFAULT_FILL: f64 = 0.9;

// ---------------------------------------------------------------------------
// Raw node helpers
// ---------------------------------------------------------------------------

mod node {
    use super::*;

    pub fn count(d: &[u8]) -> usize {
        u16::from_le_bytes([d[0], d[1]]) as usize
    }

    pub fn set_count(d: &mut [u8], n: usize) {
        d[0..2].copy_from_slice(&(n as u16).to_le_bytes());
    }

    pub fn free_end(d: &[u8]) -> usize {
        u16::from_le_bytes([d[2], d[3]]) as usize
    }

    pub fn set_free_end(d: &mut [u8], v: usize) {
        d[2..4].copy_from_slice(&(v as u16).to_le_bytes());
    }

    pub fn is_leaf(d: &[u8]) -> bool {
        d[4] & 1 == 1
    }

    pub fn next(d: &[u8]) -> PageId {
        u32::from_le_bytes([d[8], d[9], d[10], d[11]])
    }

    pub fn set_next(d: &mut [u8], p: PageId) {
        d[8..12].copy_from_slice(&p.to_le_bytes());
    }

    pub fn init(d: &mut [u8], leaf: bool) {
        d[..HDR].fill(0);
        set_free_end(d, PAGE_SIZE);
        d[4] = leaf as u8;
        set_next(d, NO_PAGE);
    }

    fn dir_at(i: usize) -> usize {
        HDR + i * DIR
    }

    pub fn entry_off(d: &[u8], i: usize) -> usize {
        let at = dir_at(i);
        u16::from_le_bytes([d[at], d[at + 1]]) as usize
    }

    pub fn entry_vlen(d: &[u8], i: usize) -> usize {
        let at = dir_at(i);
        u16::from_le_bytes([d[at + 2], d[at + 3]]) as usize
    }

    pub fn entry_key(d: &[u8], i: usize, key_len: usize) -> &[u8] {
        let off = entry_off(d, i);
        &d[off..off + key_len]
    }

    pub fn entry_val(d: &[u8], i: usize, key_len: usize) -> &[u8] {
        let off = entry_off(d, i);
        let vlen = entry_vlen(d, i);
        &d[off + key_len..off + key_len + vlen]
    }

    /// Internal-node child pointer stored as the entry value.
    pub fn entry_child(d: &[u8], i: usize, key_len: usize) -> PageId {
        let v = entry_val(d, i, key_len);
        u32::from_le_bytes([v[0], v[1], v[2], v[3]])
    }

    /// `a.cmp(b)` for two keys of one length, a big-endian `u64` word at a
    /// time: the words at offsets 0, 8, … and a last word at `len - 8`,
    /// which may overlap the word before it (once every earlier word is
    /// equal, the overlap is too). Keys shorter than 8 bytes take the
    /// slice compare.
    #[inline]
    pub fn cmp_key(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        if n < 8 {
            return a.cmp(b);
        }
        let word = |s: &[u8], at: usize| {
            u64::from_be_bytes(s[at..at + 8].try_into().expect("8-byte window"))
        };
        let mut at = 0;
        while at + 8 < n {
            let (x, y) = (word(a, at), word(b, at));
            if x != y {
                return x.cmp(&y);
            }
            at += 8;
        }
        word(a, n - 8).cmp(&word(b, n - 8))
    }

    /// Binary search over the sorted directory.
    pub fn search(d: &[u8], key: &[u8], key_len: usize) -> Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = count(d);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match cmp_key(entry_key(d, mid, key_len), key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Which child should a search for `key` descend into?
    pub fn find_child(d: &[u8], key: &[u8], key_len: usize) -> PageId {
        match search(d, key, key_len) {
            Ok(i) => entry_child(d, i, key_len),
            Err(0) => next(d), // child0
            Err(i) => entry_child(d, i - 1, key_len),
        }
    }

    pub fn live_bytes(d: &[u8], key_len: usize) -> usize {
        (0..count(d)).map(|i| key_len + entry_vlen(d, i)).sum()
    }

    pub fn total_free(d: &[u8], key_len: usize) -> usize {
        PAGE_SIZE - HDR - count(d) * DIR - live_bytes(d, key_len)
    }

    /// Whether an internal node has room for one more separator. Every
    /// internal entry's value is a 4-byte child id, so this is
    /// [`total_free`] without the walk over the entries.
    pub fn internal_room(d: &[u8], key_len: usize) -> bool {
        let entry = DIR + key_len + 4;
        debug_assert_eq!(
            PAGE_SIZE - HDR - count(d) * entry,
            total_free(d, key_len),
            "internal entries hold 4-byte child ids"
        );
        (count(d) + 1) * entry <= PAGE_SIZE - HDR
    }

    pub fn contiguous_free(d: &[u8]) -> usize {
        free_end(d) - (HDR + count(d) * DIR)
    }

    /// Rewrite the entry heap contiguously, dropping dead space.
    pub fn compact(d: &mut [u8], key_len: usize) {
        let old: PageBuf = d.try_into().expect("a node is one page");
        let n = count(&old);
        set_count(d, 0);
        set_free_end(d, PAGE_SIZE);
        for i in 0..n {
            insert_entry(
                d,
                i,
                entry_key(&old, i, key_len),
                entry_val(&old, i, key_len),
                key_len,
            );
        }
    }

    /// Insert `(key, val)` at directory position `i`. The caller must have
    /// verified `total_free >= key_len + val.len() + DIR`.
    pub fn insert_entry(d: &mut [u8], i: usize, key: &[u8], val: &[u8], key_len: usize) {
        debug_assert_eq!(key.len(), key_len);
        let need = key_len + val.len();
        if contiguous_free(d) < need + DIR {
            compact(d, key_len);
        }
        debug_assert!(contiguous_free(d) >= need + DIR);
        let n = count(d);
        // Shift directory entries [i..n) right by one slot.
        d.copy_within(dir_at(i)..dir_at(n), dir_at(i + 1));
        let off = free_end(d) - need;
        d[off..off + key_len].copy_from_slice(key);
        d[off + key_len..off + need].copy_from_slice(val);
        set_free_end(d, off);
        let at = dir_at(i);
        d[at..at + 2].copy_from_slice(&(off as u16).to_le_bytes());
        d[at + 2..at + 4].copy_from_slice(&(val.len() as u16).to_le_bytes());
        set_count(d, n + 1);
    }

    /// Remove the directory entry at `i` (heap space reclaimed lazily).
    pub fn remove_entry(d: &mut [u8], i: usize) {
        let n = count(d);
        d.copy_within(dir_at(i + 1)..dir_at(n), dir_at(i));
        set_count(d, n - 1);
    }

    /// Give leaf entry `i` (holding `key`) the value `val`: over the old
    /// value when it is no longer, else re-inserted into the page's free
    /// space. Returns `false` when `val` needs a split: the old entry is
    /// then already removed, and the caller re-adds the key.
    pub fn replace_value(d: &mut [u8], i: usize, key: &[u8], val: &[u8], key_len: usize) -> bool {
        if val.len() <= entry_vlen(d, i) {
            overwrite_value(d, i, key_len, val);
            return true;
        }
        remove_entry(d, i);
        if total_free(d, key_len) < key_len + val.len() + DIR {
            return false;
        }
        let pos = search(d, key, key_len).unwrap_err();
        insert_entry(d, pos, key, val, key_len);
        true
    }

    /// Overwrite the value of entry `i` in place (`val` must not be longer
    /// than the current value).
    pub fn overwrite_value(d: &mut [u8], i: usize, key_len: usize, val: &[u8]) {
        let off = entry_off(d, i);
        debug_assert!(val.len() <= entry_vlen(d, i));
        d[off + key_len..off + key_len + val.len()].copy_from_slice(val);
        let at = dir_at(i);
        d[at + 2..at + 4].copy_from_slice(&(val.len() as u16).to_le_bytes());
    }

    /// Rewrite the whole node from a materialized entry list.
    pub fn write_node(
        d: &mut [u8],
        leaf: bool,
        next_or_child0: PageId,
        entries: &[(Vec<u8>, Vec<u8>)],
        key_len: usize,
    ) {
        init(d, leaf);
        set_next(d, next_or_child0);
        for (i, (k, v)) in entries.iter().enumerate() {
            insert_entry(d, i, k, v, key_len);
        }
    }

    /// The node's `(key, value)` entries in key order, borrowed from `d`.
    pub fn entries(d: &[u8], key_len: usize) -> impl Iterator<Item = (&[u8], &[u8])> {
        (0..count(d)).map(move |i| (entry_key(d, i, key_len), entry_val(d, i, key_len)))
    }

    pub fn all_entries(d: &[u8], key_len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        entries(d, key_len)
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// BTreeFile
// ---------------------------------------------------------------------------

/// Structural metadata of a B-tree, sufficient to reattach to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeMeta {
    /// Key length in bytes.
    pub key_len: u16,
    /// Root page.
    pub root: PageId,
    /// Leftmost leaf (scan entry point).
    pub first_leaf: PageId,
    /// Number of entries.
    pub len: u64,
    /// Height in levels.
    pub height: u32,
    /// Leaf page count.
    pub leaf_pages: u32,
}

/// A promoted separator key plus the page to its right, produced by splits.
type SplitResult = (Vec<u8>, PageId);

/// What an insert's read pin on a node found.
enum Step {
    /// A leaf; `full` when it lacks the key and has no room for it.
    Leaf { full: bool },
    /// An internal node, the child the key descends into, and whether
    /// the node has room for one more separator should that child split.
    Child { child: PageId, room: bool },
}

/// Outcome of a leaf fast-path mutation attempt.
enum Fast {
    Inserted,
    Replaced,
    /// A replacement removed the old entry but the grown value needs a
    /// split to be re-placed; the key count must not change.
    NeedSplitAfterRemove,
}

/// A B+tree relation: fixed-length keys, variable-length values.
///
/// ```
/// use cor_access::BTreeFile;
/// use cor_pagestore::{BufferPool, IoStats, MemDisk};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let tree = BTreeFile::create(pool, 8).unwrap();
/// tree.insert(&7u64.to_be_bytes(), b"seven").unwrap();
/// assert_eq!(tree.get(&7u64.to_be_bytes()).unwrap().unwrap(), b"seven");
/// assert_eq!(tree.range(&0u64.to_be_bytes(), &9u64.to_be_bytes()).unwrap().count(), 1);
/// ```
pub struct BTreeFile {
    pool: Arc<BufferPool>,
    key_len: usize,
    root: SyncCell<PageId>,
    first_leaf: SyncCell<PageId>,
    len: SyncCell<u64>,
    height: SyncCell<u32>,
    leaf_pages: SyncCell<u32>,
}

/// What an update's `f` makes of the stored value `old`, run on a copy:
/// the value to store, or `None` when it is `old` again.
fn patched<E>(
    old: &[u8],
    f: impl FnOnce(&mut [u8]) -> Result<Option<Vec<u8>>, E>,
) -> Result<Option<Vec<u8>>, E> {
    let mut val = old.to_vec();
    let new = f(&mut val)?.unwrap_or(val);
    Ok((new != old).then_some(new))
}

impl BTreeFile {
    /// Create an empty tree with `key_len`-byte keys.
    pub fn create(pool: Arc<BufferPool>, key_len: usize) -> Result<Self, AccessError> {
        if key_len == 0 || key_len > 64 {
            return Err(AccessError::BadKeyLen(key_len));
        }
        let root = pool.allocate_page()?;
        pool.write(root, |mut p| node::init(p.bytes_mut(), true))?;
        Ok(BTreeFile {
            pool,
            key_len,
            root: SyncCell::new(root),
            first_leaf: SyncCell::new(root),
            len: SyncCell::new(0),
            height: SyncCell::new(1),
            leaf_pages: SyncCell::new(1),
        })
    }

    /// Bulk-load a tree from strictly ascending `(key, value)` pairs at the
    /// given fill fraction (INGRES `modify ... to btree` analogue): one
    /// [`BulkLoader`] fed the pairs in order.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        key_len: usize,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
        fill: f64,
    ) -> Result<Self, AccessError> {
        let mut loader = BulkLoader::new(pool, key_len, fill)?;
        for (k, v) in entries {
            loader.push(&k, &v)?;
        }
        loader.finish()
    }

    /// The buffer pool this tree lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Snapshot of the tree's structural metadata, for persisting in a
    /// catalog (see [`crate::catalog::Catalog`]).
    pub fn metadata(&self) -> BTreeMeta {
        BTreeMeta {
            key_len: self.key_len as u16,
            root: self.root.get(),
            first_leaf: self.first_leaf.get(),
            len: self.len.get(),
            height: self.height.get(),
            leaf_pages: self.leaf_pages.get(),
        }
    }

    /// Reattach to a tree previously persisted via [`Self::metadata`].
    /// The pages must live in `pool`'s store; nothing is validated eagerly
    /// beyond the key length.
    pub fn from_metadata(pool: Arc<BufferPool>, meta: BTreeMeta) -> Result<Self, AccessError> {
        if meta.key_len == 0 || meta.key_len > 64 {
            return Err(AccessError::BadKeyLen(meta.key_len as usize));
        }
        Ok(BTreeFile {
            pool,
            key_len: meta.key_len as usize,
            root: SyncCell::new(meta.root),
            first_leaf: SyncCell::new(meta.first_leaf),
            len: SyncCell::new(meta.len),
            height: SyncCell::new(meta.height),
            leaf_pages: SyncCell::new(meta.leaf_pages),
        })
    }

    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len.get()
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height.get()
    }

    /// Number of leaf pages (exact after bulk load, grows with splits).
    pub fn leaf_pages(&self) -> u32 {
        self.leaf_pages.get()
    }

    fn check_entry(&self, key: &[u8], val: &[u8]) -> Result<(), AccessError> {
        if key.len() != self.key_len {
            return Err(AccessError::BadKeyLen(key.len()));
        }
        if self.key_len + val.len() > MAX_BTREE_ENTRY {
            return Err(AccessError::EntryTooLarge);
        }
        Ok(())
    }

    /// Descend from the root to the leaf that owns `key` and run `at_leaf`
    /// on the leaf's page id and bytes under the descent's own pin: one
    /// pin per level, the leaf included.
    fn descend<R>(
        &self,
        key: &[u8],
        at_leaf: impl FnOnce(PageId, &[u8]) -> R,
    ) -> Result<R, AccessError> {
        // Faults during the descent are index navigation unless a strategy
        // has claimed a more specific bracket.
        let _phase = PhaseGuard::enter_default(Phase::IndexDescent);
        let mut at_leaf = Some(at_leaf);
        let mut page = self.root.get();
        loop {
            let step = self.pool.read(page, |p| {
                let d = p.bytes();
                if !node::is_leaf(d) {
                    return Err(node::find_child(d, key, self.key_len));
                }
                let at_leaf = at_leaf.take().expect("a descent reaches one leaf");
                Ok(at_leaf(page, d))
            })?;
            match step {
                Ok(r) => return Ok(r),
                Err(child) => page = child,
            }
        }
    }

    /// The page id of the leaf that owns `key`, where [`Self::range`] and
    /// [`Self::visit_range`] start their leaf walk. Point lookups search
    /// the leaf inside the descent instead ([`Self::get_with`]).
    fn find_leaf(&self, key: &[u8]) -> Result<PageId, AccessError> {
        self.descend(key, |leaf, _| leaf)
    }

    /// Point lookup through a leaf-page hint, **in place**: one direct
    /// page read instead of a root-to-leaf descent, `f` run over the value
    /// under the hinted page's pin. Falls back to [`Self::get_with`] if
    /// the hint went stale (only possible after a split moved the key) or
    /// never named a leaf; `f` runs at most once either way.
    pub fn get_with_hint<R, E>(
        &self,
        hint: PageId,
        key: &[u8],
        mut f: impl FnMut(&[u8]) -> Result<R, E>,
    ) -> Result<Option<R>, E>
    where
        E: From<AccessError>,
    {
        if key.len() != self.key_len {
            return Err(AccessError::BadKeyLen(key.len()).into());
        }
        let key_len = self.key_len;
        let hit = {
            let _phase = PhaseGuard::enter_default(Phase::HeapFetch);
            self.pool
                .read(hint, |p| {
                    let d = p.bytes();
                    if !node::is_leaf(d) {
                        return None;
                    }
                    node::search(d, key, key_len)
                        .ok()
                        .map(|i| f(node::entry_val(d, i, key_len)))
                })
                .map_err(AccessError::from)?
        };
        match hit {
            Some(r) => r.map(Some),
            None => self.get_with(key, f),
        }
    }

    /// [`Self::update_with`] through a leaf-page hint: the hinted page is
    /// searched under a read pin instead of a root-to-leaf descent, so a
    /// hint that still holds the key costs two pins. Falls back to
    /// [`Self::update_with`] if the hint went stale or never named a leaf;
    /// `f` runs at most once either way.
    pub fn update_with_hint<E>(
        &self,
        hint: PageId,
        key: &[u8],
        f: impl FnOnce(&mut [u8]) -> Result<Option<Vec<u8>>, E>,
    ) -> Result<bool, E>
    where
        E: From<AccessError>,
    {
        if key.len() != self.key_len {
            return Err(AccessError::BadKeyLen(key.len()).into());
        }
        let key_len = self.key_len;
        let mut f = Some(f);
        let at = {
            let _phase = PhaseGuard::enter_default(Phase::HeapFetch);
            self.pool
                .read(hint, |p| {
                    let d = p.bytes();
                    if !node::is_leaf(d) {
                        return None;
                    }
                    let i = node::search(d, key, key_len).ok()?;
                    let f = f.take().expect("f runs at most once");
                    Some(patched(node::entry_val(d, i, key_len), f).map(|new| (i, new)))
                })
                .map_err(AccessError::from)?
        };
        match at {
            Some(patch) => {
                let (i, new) = patch?;
                Ok(self.store(hint, i, key, new)?)
            }
            None => self.update_with(key, f.take().expect("f has not run")),
        }
    }

    /// Visit every entry stored on one leaf page **in place**: `f` sees
    /// each `(key, value)` as slices borrowed from the pinned page, in key
    /// order; nothing is visited if the page is not a leaf. Lets callers
    /// harvest co-located records from a page they already paid to fetch
    /// — e.g. the rest of a physically clustered unit after a TID probe
    /// for its first member — without copying any of them out.
    ///
    /// The first `Err` from `f` ends the visit, unpins the page and is
    /// returned.
    pub fn visit_leaf<E>(
        &self,
        leaf: PageId,
        mut f: impl FnMut(&[u8], &[u8]) -> Result<(), E>,
    ) -> Result<(), E>
    where
        E: From<AccessError>,
    {
        let key_len = self.key_len;
        let _phase = PhaseGuard::enter_default(Phase::HeapFetch);
        self.pool
            .read(leaf, |p| {
                let d = p.bytes();
                if !node::is_leaf(d) {
                    return Ok(());
                }
                node::entries(d, key_len).try_for_each(|(k, v)| f(k, v))
            })
            .map_err(AccessError::from)?
    }

    /// Point lookup **in place**: `f` runs over the value under the leaf's
    /// page pin and its result comes back; `Ok(None)` (and no call) when
    /// the key is absent. An `Err` from `f` is returned as is.
    ///
    /// One pin per level; the leaf is searched under the descent's pin. A
    /// lookup costs exactly [`Self::height`] pins, all of them charged to
    /// [`Phase::IndexDescent`] unless a caller has claimed a phase.
    pub fn get_with<R, E>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> Result<R, E>,
    ) -> Result<Option<R>, E>
    where
        E: From<AccessError>,
    {
        if key.len() != self.key_len {
            return Err(AccessError::BadKeyLen(key.len()).into());
        }
        let key_len = self.key_len;
        self.descend(key, |_, d| {
            node::search(d, key, key_len)
                .ok()
                .map(|i| f(node::entry_val(d, i, key_len)))
        })?
        .transpose()
    }

    /// Read-modify-write of one value: `f` gets a copy of the value of
    /// `key`, read under the leaf's page pin, and either patches it there
    /// and returns `Ok(None)`, or returns its replacement as
    /// `Ok(Some(value))`. Returns `false` when the key is absent: `f` is
    /// not called and no page is dirtied. A value `f` leaves as it was, or
    /// an `Err` from `f` (returned as is), dirties nothing either.
    ///
    /// One descent under read pins searches the leaf and runs `f` under
    /// the descent's own pin, then one write pin on the leaf stores the
    /// new value: `height + 1` pins (`height` when nothing changed). A
    /// replacement stays on the leaf when the page has room for it; one
    /// that does not fit takes [`Self::insert`]'s split path from the
    /// root.
    pub fn update_with<E>(
        &self,
        key: &[u8],
        f: impl FnOnce(&mut [u8]) -> Result<Option<Vec<u8>>, E>,
    ) -> Result<bool, E>
    where
        E: From<AccessError>,
    {
        if key.len() != self.key_len {
            return Err(AccessError::BadKeyLen(key.len()).into());
        }
        let key_len = self.key_len;
        let found = self.descend(key, |leaf, d| {
            let i = node::search(d, key, key_len).ok()?;
            Some(patched(node::entry_val(d, i, key_len), f).map(|new| (leaf, i, new)))
        })?;
        match found {
            Some(patch) => {
                let (leaf, i, new) = patch?;
                Ok(self.store(leaf, i, key, new)?)
            }
            None => Ok(false),
        }
    }

    /// Store `new` as the value of entry `i` of `leaf` under one write
    /// pin; `None`, the value already there, pins nothing. The entry was
    /// found to hold `key` under the read pin just released; writers are
    /// serialised, so it still does.
    fn store(
        &self,
        leaf: PageId,
        i: usize,
        key: &[u8],
        new: Option<Vec<u8>>,
    ) -> Result<bool, AccessError> {
        let Some(val) = new else {
            return Ok(true);
        };
        let key_len = self.key_len;
        if key_len + val.len() > MAX_BTREE_ENTRY {
            return Err(AccessError::EntryTooLarge);
        }
        let fitted = self.pool.write(leaf, |mut p| {
            let d = p.bytes_mut();
            assert!(
                node::entry_key(d, i, key_len) == key,
                "a second writer moved the entry between the pins"
            );
            node::replace_value(d, i, key, &val, key_len)
        })?;
        if !fitted {
            // The old entry is gone from the full leaf: re-add the key
            // through a split, as an insert would.
            self.insert_from_root(key, &val)?;
        }
        Ok(true)
    }

    /// Point lookup, copying the value out.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, AccessError> {
        self.get_with(key, |v| Ok(v.to_vec()))
    }

    /// Upsert `(key, value)`. Returns `true` if a new key was inserted,
    /// `false` if an existing key's value was replaced.
    pub fn insert(&self, key: &[u8], val: &[u8]) -> Result<bool, AccessError> {
        self.check_entry(key, val)?;
        let inserted = self.insert_from_root(key, val)?;
        if inserted {
            self.len.set(self.len.get() + 1);
        }
        Ok(inserted)
    }

    /// Upsert `(key, val)` from the root down, growing a new root when the
    /// old one splits; `len` is the caller's to keep. Returns whether the
    /// leaf lacked the key.
    fn insert_from_root(&self, key: &[u8], val: &[u8]) -> Result<bool, AccessError> {
        let (split, inserted) = self.insert_rec(self.root.get(), key, val)?;
        if let Some((sep, right)) = split {
            let new_root = self.pool.allocate_page()?;
            let old_root = self.root.get();
            self.pool.write(new_root, |mut p| {
                let d = p.bytes_mut();
                node::init(d, false);
                node::set_next(d, old_root);
                node::insert_entry(d, 0, &sep, &right.to_le_bytes(), self.key_len);
            })?;
            self.root.set(new_root);
            self.height.set(self.height.get() + 1);
        }
        Ok(inserted)
    }

    fn insert_rec(
        &self,
        page: PageId,
        key: &[u8],
        val: &[u8],
    ) -> Result<(Option<SplitResult>, bool), AccessError> {
        let key_len = self.key_len;
        // One read pin tells a leaf from an internal node. A leaf is `full`
        // when it lacks the key and has no room for it, decided here so
        // that such a leaf goes straight to the split with no write pin
        // that changes nothing; an internal node names the child to
        // descend into and whether a separator from it would fit, so that
        // a full node goes straight to its split too. Only this call
        // writes this node, so the room it found still holds when the
        // child returns.
        let step = self.pool.read(page, |p| {
            let d = p.bytes();
            if node::is_leaf(d) {
                Step::Leaf {
                    full: node::search(d, key, key_len).is_err()
                        && node::total_free(d, key_len) < key_len + val.len() + DIR,
                }
            } else {
                Step::Child {
                    child: node::find_child(d, key, key_len),
                    room: node::internal_room(d, key_len),
                }
            }
        })?;
        let (child, room) = match step {
            Step::Child { child, room } => (child, room),
            Step::Leaf { full: true } => {
                let (split, inserted) = self.split_leaf(page, key, val)?;
                return Ok((Some(split), inserted));
            }
            Step::Leaf { full: false } => {
                let fast = self.pool.write(page, |mut p| {
                    let d = p.bytes_mut();
                    match node::search(d, key, key_len) {
                        Ok(i) if node::replace_value(d, i, key, val, key_len) => Fast::Replaced,
                        // Old entry is gone; the split path below will
                        // re-add the key with its new value.
                        Ok(_) => Fast::NeedSplitAfterRemove,
                        // The read pin found room, and nothing wrote the
                        // page since.
                        Err(i) => {
                            node::insert_entry(d, i, key, val, key_len);
                            Fast::Inserted
                        }
                    }
                })?;
                return match fast {
                    Fast::Inserted => Ok((None, true)),
                    Fast::Replaced => Ok((None, false)),
                    Fast::NeedSplitAfterRemove => {
                        let (split, _) = self.split_leaf(page, key, val)?;
                        Ok((Some(split), false))
                    }
                };
            }
        };
        let (split, inserted) = self.insert_rec(child, key, val)?;
        let Some((sep, new_child)) = split else {
            return Ok((None, inserted));
        };
        if room {
            self.pool.write(page, |mut p| {
                let d = p.bytes_mut();
                let i = node::search(d, &sep, key_len)
                    .expect_err("separator key cannot already exist in parent");
                node::insert_entry(d, i, &sep, &new_child.to_le_bytes(), key_len);
            })?;
            return Ok((None, inserted));
        }
        let split = self.split_internal(page, sep, new_child)?;
        Ok((Some(split), inserted))
    }

    /// Split an over-full leaf while inserting `(key, val)`.
    /// Returns the promoted separator and new right page.
    fn split_leaf(
        &self,
        page: PageId,
        key: &[u8],
        val: &[u8],
    ) -> Result<(SplitResult, bool), AccessError> {
        let key_len = self.key_len;
        let (mut entries, old_next) = self.pool.read(page, |p| {
            (node::all_entries(p.bytes(), key_len), node::next(p.bytes()))
        })?;
        let inserted = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => {
                entries[i].1 = val.to_vec();
                false
            }
            Err(i) => {
                entries.insert(i, (key.to_vec(), val.to_vec()));
                true
            }
        };
        let total_bytes: usize = entries.iter().map(|(k, v)| DIR + k.len() + v.len()).sum();
        let mut acc = 0usize;
        let mut m = 0usize;
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += DIR + k.len() + v.len();
            if acc >= total_bytes / 2 {
                // The entry crossing the middle goes left unless the left
                // page cannot hold it; the right page then can, since no
                // entry takes more than half a page.
                m = if acc <= PAGE_SIZE - HDR { i + 1 } else { i };
                break;
            }
        }
        let m = m.clamp(1, entries.len() - 1);
        let right_entries = entries.split_off(m);
        let sep = right_entries[0].0.clone();

        let right = self.pool.allocate_page()?;
        self.pool.write(right, |mut p| {
            node::write_node(p.bytes_mut(), true, old_next, &right_entries, key_len)
        })?;
        self.pool.write(page, |mut p| {
            node::write_node(p.bytes_mut(), true, right, &entries, key_len)
        })?;
        self.leaf_pages.set(self.leaf_pages.get() + 1);
        Ok(((sep, right), inserted))
    }

    /// Split an over-full internal node while inserting `(sep, new_child)`.
    fn split_internal(
        &self,
        page: PageId,
        sep: Vec<u8>,
        new_child: PageId,
    ) -> Result<(Vec<u8>, PageId), AccessError> {
        let key_len = self.key_len;
        let (mut entries, child0) = self.pool.read(page, |p| {
            (node::all_entries(p.bytes(), key_len), node::next(p.bytes()))
        })?;
        let i = entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(&sep))
            .expect_err("separator key cannot already exist in internal node");
        entries.insert(i, (sep, new_child.to_le_bytes().to_vec()));

        let m = entries.len() / 2;
        let promoted = entries[m].0.clone();
        let right_child0 = PageId::from_le_bytes([
            entries[m].1[0],
            entries[m].1[1],
            entries[m].1[2],
            entries[m].1[3],
        ]);
        let right_entries: Vec<(Vec<u8>, Vec<u8>)> = entries[m + 1..].to_vec();
        entries.truncate(m);

        let right = self.pool.allocate_page()?;
        self.pool.write(right, |mut p| {
            node::write_node(p.bytes_mut(), false, right_child0, &right_entries, key_len)
        })?;
        self.pool.write(page, |mut p| {
            node::write_node(p.bytes_mut(), false, child0, &entries, key_len)
        })?;
        Ok((promoted, right))
    }

    /// Delete `key`. Returns whether it was present.
    ///
    /// Underfull nodes (below a quarter-page of live bytes) are merged
    /// with a sibling when the pair fits in one page, cascading upward;
    /// when the root shrinks to a single child the tree loses a level.
    /// (Borrowing is not implemented — with variable-length entries,
    /// merge-when-fits keeps occupancy bounded with far less machinery;
    /// freed pages are not recycled by the page store.)
    pub fn delete(&self, key: &[u8]) -> Result<bool, AccessError> {
        if key.len() != self.key_len {
            return Err(AccessError::BadKeyLen(key.len()));
        }
        let removed = self.delete_rec(self.root.get(), key)?;
        if removed {
            self.len.set(self.len.get() - 1);
            // Collapse a root that lost all its separators.
            loop {
                let root = self.root.get();
                let sole_child = self.pool.read(root, |p| {
                    let d = p.bytes();
                    (!node::is_leaf(d) && node::count(d) == 0).then(|| node::next(d))
                })?;
                match sole_child {
                    Some(child) => {
                        self.pool.free_page(root)?;
                        self.root.set(child);
                        self.height.set(self.height.get() - 1);
                    }
                    None => break,
                }
            }
        }
        Ok(removed)
    }

    /// Live-byte threshold below which a node is considered underfull.
    fn underfull_threshold() -> usize {
        (PAGE_SIZE - HDR) / 4
    }

    fn is_underfull(&self, page: PageId) -> Result<bool, AccessError> {
        let key_len = self.key_len;
        Ok(self.pool.read(page, |p| {
            let d = p.bytes();
            node::count(d) * DIR + node::live_bytes(d, key_len) < Self::underfull_threshold()
        })?)
    }

    fn delete_rec(&self, page: PageId, key: &[u8]) -> Result<bool, AccessError> {
        let key_len = self.key_len;
        let (leaf, child_pos, child) = self.pool.read(page, |p| {
            let d = p.bytes();
            if node::is_leaf(d) {
                (true, 0, NO_PAGE)
            } else {
                let pos = match node::search(d, key, key_len) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let child = if pos == 0 {
                    node::next(d)
                } else {
                    node::entry_child(d, pos - 1, key_len)
                };
                (false, pos, child)
            }
        })?;
        if leaf {
            return Ok(self.pool.write(page, |mut p| {
                let d = p.bytes_mut();
                match node::search(d, key, key_len) {
                    Ok(i) => {
                        node::remove_entry(d, i);
                        true
                    }
                    Err(_) => false,
                }
            })?);
        }
        let removed = self.delete_rec(child, key)?;
        if removed && self.is_underfull(child)? {
            self.try_merge_child(page, child_pos)?;
        }
        Ok(removed)
    }

    /// Try to merge the child at `pos` of `parent` with a sibling (the
    /// right-hand member of the pair is always folded into the left page,
    /// keeping the leftmost leaf stable). A merge only happens when the
    /// combined contents fit in one page.
    fn try_merge_child(&self, parent: PageId, pos: usize) -> Result<(), AccessError> {
        let key_len = self.key_len;
        let n = self.pool.read(parent, |p| node::count(p.bytes()))?;
        if n == 0 {
            return Ok(()); // single child: nothing to merge with here
        }
        // Prefer merging with the right sibling; fall back to the left.
        let left_pos = if pos < n { pos } else { pos - 1 };
        let (left, right, sep) = self.pool.read(parent, |p| {
            let d = p.bytes();
            let child_at = |i: usize| {
                if i == 0 {
                    node::next(d)
                } else {
                    node::entry_child(d, i - 1, key_len)
                }
            };
            (
                child_at(left_pos),
                child_at(left_pos + 1),
                node::entry_key(d, left_pos, key_len).to_vec(),
            )
        })?;

        let (l_leaf, l_entries, l_next) = self.pool.read(left, |p| {
            let d = p.bytes();
            (
                node::is_leaf(d),
                node::all_entries(d, key_len),
                node::next(d),
            )
        })?;
        let (r_leaf, r_entries, r_next) = self.pool.read(right, |p| {
            let d = p.bytes();
            (
                node::is_leaf(d),
                node::all_entries(d, key_len),
                node::next(d),
            )
        })?;
        debug_assert_eq!(l_leaf, r_leaf, "siblings are at the same level");

        let combined_bytes: usize = l_entries
            .iter()
            .chain(&r_entries)
            .map(|(k, v)| DIR + k.len() + v.len())
            .sum::<usize>()
            + if l_leaf { 0 } else { DIR + key_len + 4 };
        if combined_bytes > PAGE_SIZE - HDR {
            return Ok(()); // does not fit: leave the underfull node be
        }

        let mut merged = l_entries;
        let new_next;
        if l_leaf {
            merged.extend(r_entries);
            new_next = r_next; // unlink `right` from the leaf chain
            self.leaf_pages.set(self.leaf_pages.get() - 1);
        } else {
            // Pull the separator down; the right node's child0 becomes its
            // payload child.
            merged.push((sep, r_next.to_le_bytes().to_vec()));
            merged.extend(r_entries);
            new_next = l_next; // internal: keep left's child0
        }
        self.pool.write(left, |mut p| {
            node::write_node(p.bytes_mut(), l_leaf, new_next, &merged, key_len)
        })?;
        // Remove the separator (and with it the pointer to `right`), then
        // recycle the emptied page.
        self.pool.write(parent, |mut p| {
            node::remove_entry(p.bytes_mut(), left_pos);
        })?;
        self.pool.free_page(right)?;
        Ok(())
    }

    /// Replace the value of an existing key. Returns `false` (and stores
    /// nothing) if the key is absent. One [`Self::update_with`].
    pub fn update(&self, key: &[u8], val: &[u8]) -> Result<bool, AccessError> {
        self.check_entry(key, val)?;
        self.update_with(key, |_| Ok(Some(val.to_vec())))
    }

    /// Exhaustively check the tree's structural invariants: keys strictly
    /// ascending within every node, separators bounding their subtrees,
    /// the leaf chain visiting every leaf in global key order, and the
    /// entry count matching `len()`. Returns a description of the first
    /// violation. Used by tests and available to callers who want a
    /// consistency check after a bulk operation.
    pub fn validate(&self) -> Result<(), String> {
        let mut leaves_in_order = Vec::new();
        let entries = self.validate_node(self.root.get(), None, None, &mut leaves_in_order)?;
        if entries != self.len.get() {
            return Err(format!(
                "len() is {} but {} entries found",
                self.len.get(),
                entries
            ));
        }
        // The leaf chain must visit exactly the leaves discovered by the
        // recursive walk, in the same order.
        let mut chained = Vec::new();
        let mut page = self.first_leaf.get();
        let mut prev_last_key: Option<Vec<u8>> = None;
        while page != NO_PAGE {
            chained.push(page);
            let (first, last, next) = self
                .pool
                .read(page, |p| {
                    let d = p.bytes();
                    let n = node::count(d);
                    let first = (n > 0).then(|| node::entry_key(d, 0, self.key_len).to_vec());
                    let last = (n > 0).then(|| node::entry_key(d, n - 1, self.key_len).to_vec());
                    (first, last, node::next(d))
                })
                .map_err(|e| format!("leaf chain read failed: {e}"))?;
            if let (Some(prev), Some(first)) = (&prev_last_key, &first) {
                if first <= prev {
                    return Err(format!("leaf chain out of order at page {page}"));
                }
            }
            if let Some(last) = last {
                prev_last_key = Some(last);
            }
            page = next;
        }
        if chained != leaves_in_order {
            return Err(format!(
                "leaf chain {chained:?} disagrees with tree structure {leaves_in_order:?}"
            ));
        }
        Ok(())
    }

    fn validate_node(
        &self,
        page: PageId,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        leaves: &mut Vec<PageId>,
    ) -> Result<u64, String> {
        let key_len = self.key_len;
        let (leaf, keys, children) = self
            .pool
            .read(page, |p| {
                let d = p.bytes();
                let n = node::count(d);
                let keys: Vec<Vec<u8>> = (0..n)
                    .map(|i| node::entry_key(d, i, key_len).to_vec())
                    .collect();
                if node::is_leaf(d) {
                    (true, keys, Vec::new())
                } else {
                    let mut ch = vec![node::next(d)];
                    ch.extend((0..n).map(|i| node::entry_child(d, i, key_len)));
                    (false, keys, ch)
                }
            })
            .map_err(|e| format!("node {page} unreadable: {e}"))?;

        for w in keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("node {page}: keys not strictly ascending"));
            }
        }
        if let (Some(lo), Some(first)) = (lo, keys.first()) {
            if first.as_slice() < lo {
                return Err(format!("node {page}: key below separator bound"));
            }
        }
        if let (Some(hi), Some(last)) = (hi, keys.last()) {
            if last.as_slice() >= hi {
                return Err(format!("node {page}: key at/above separator bound"));
            }
        }
        if leaf {
            leaves.push(page);
            return Ok(keys.len() as u64);
        }
        if children.len() != keys.len() + 1 {
            return Err(format!(
                "node {page}: {} children for {} keys",
                children.len(),
                keys.len()
            ));
        }
        let mut total = 0u64;
        for (i, &child) in children.iter().enumerate() {
            let child_lo = if i == 0 {
                lo
            } else {
                Some(keys[i - 1].as_slice())
            };
            let child_hi = if i == keys.len() {
                hi
            } else {
                Some(keys[i].as_slice())
            };
            total += self.validate_node(child, child_lo, child_hi, leaves)?;
        }
        Ok(total)
    }

    /// Inclusive range scan `lo..=hi`.
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> Result<BTreeRange, AccessError> {
        if lo.len() != self.key_len || hi.len() != self.key_len {
            return Err(AccessError::BadKeyLen(lo.len().max(hi.len())));
        }
        let start_leaf = self.find_leaf(lo)?;
        Ok(BTreeRange {
            leaves: self.leaf_walker(start_leaf),
            key_len: self.key_len,
            lo: lo.to_vec(),
            hi: hi.to_vec(),
            buffered: std::collections::VecDeque::new(),
            done: false,
        })
    }

    /// Scan every entry in key order.
    pub fn scan_all(&self) -> BTreeRange {
        BTreeRange {
            leaves: self.leaf_walker(self.first_leaf.get()),
            key_len: self.key_len,
            lo: vec![0u8; self.key_len],
            hi: vec![0xFFu8; self.key_len],
            buffered: std::collections::VecDeque::new(),
            done: false,
        }
    }

    /// Inclusive range visit `lo..=hi` **in place**: `f` sees exactly the
    /// `(key, value)` pairs `range(lo, hi)?` yields, in the same order, as
    /// slices borrowed from each leaf's pinned page — one pin per leaf,
    /// the same pages touched, nothing copied out.
    ///
    /// This is the fallible form of a range scan: a leaf that cannot be
    /// read is an `Err`, and the first `Err` from `f` ends the visit,
    /// unpins the page and is returned.
    pub fn visit_range<E>(
        &self,
        lo: &[u8],
        hi: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> Result<(), E>,
    ) -> Result<(), E>
    where
        E: From<AccessError>,
    {
        if lo.len() != self.key_len || hi.len() != self.key_len {
            return Err(AccessError::BadKeyLen(lo.len().max(hi.len())).into());
        }
        let key_len = self.key_len;
        let mut leaves = self.leaf_walker(self.find_leaf(lo)?);
        loop {
            // `Ok(true)`: a key past `hi` ended the scan on this leaf.
            let visit = leaves.visit(|d| -> Result<bool, E> {
                for (k, v) in node::entries(d, key_len) {
                    if k < lo {
                        continue;
                    }
                    if k > hi {
                        return Ok(true);
                    }
                    f(k, v)?;
                }
                Ok(false)
            });
            match visit.map_err(AccessError::from)? {
                None => return Ok(()), // leaf chain exhausted
                Some(past_hi) => {
                    if past_hi? {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// A walk of the leaf chain starting at `leaf`, one leaf at a time.
    fn leaf_walker(&self, leaf: PageId) -> LeafWalker {
        LeafWalker {
            pool: Arc::clone(&self.pool),
            next_leaf: leaf,
        }
    }

    /// Merge-join a sorted stream of (possibly duplicated) `keys` against
    /// the whole tree **in place**: one co-scan of the leaf chain that
    /// compares keys under each leaf's page pin and hands every match to
    /// `on_match` as `(key, value)` slices borrowed from the page — no
    /// entry is copied out, matched or not.
    ///
    /// Yields exactly what `merge_join(keys, tree.scan_all())` yields, in
    /// the same order (a duplicated key matches again each time), and pins
    /// exactly the same pages: nothing is read for an empty key stream,
    /// the next leaf is pinned only once a key beyond the current leaf's
    /// last entry asks for it, and the scan stops with the key stream. The
    /// stream is pulled while a leaf is pinned, so a stream that does its
    /// own page I/O (a spilled sort) needs one pool frame besides the
    /// leaf's.
    ///
    /// An `Err` from `on_match` stops the scan and is returned, and so
    /// does a key of the wrong length, as `AccessError::BadKeyLen`.
    pub fn merge_scan<K, E>(
        &self,
        keys: impl IntoIterator<Item = K>,
        mut on_match: impl FnMut(&[u8], &[u8]) -> Result<(), E>,
    ) -> Result<(), E>
    where
        K: AsRef<[u8]>,
        E: From<AccessError>,
    {
        let mut keys = keys.into_iter();
        let Some(mut key) = keys.next() else {
            return Ok(());
        };
        let key_len = self.key_len;
        let mut leaves = self.leaf_walker(self.first_leaf.get());
        loop {
            // `Ok(true)`: the key stream ended on this leaf.
            let visit = leaves.visit(|d| -> Result<bool, E> {
                let n = node::count(d);
                let mut i = 0;
                loop {
                    let probe = key.as_ref();
                    if probe.len() != key_len {
                        return Err(AccessError::BadKeyLen(probe.len()).into());
                    }
                    let order = loop {
                        if i == n {
                            return Ok(false);
                        }
                        match node::cmp_key(node::entry_key(d, i, key_len), probe) {
                            std::cmp::Ordering::Less => i += 1,
                            order => break order,
                        }
                    };
                    if order.is_eq() {
                        on_match(
                            node::entry_key(d, i, key_len),
                            node::entry_val(d, i, key_len),
                        )?;
                    }
                    match keys.next() {
                        Some(k) => key = k,
                        None => return Ok(true),
                    }
                }
            });
            let Some(keys_done) = visit.map_err(AccessError::from)? else {
                return Ok(()); // leaf chain exhausted
            };
            if keys_done? {
                return Ok(());
            }
        }
    }
}

/// A streaming bulk load (INGRES `modify ... to btree`): ascending
/// `(key, value)` pairs go straight into the open leaf's page image, and
/// [`push`](Self::push) reports the leaf each landed on, so a static index
/// needs no descent to find it. A leaf is allocated at its first entry,
/// takes entries while they fit the fill fraction of a node's room, and is
/// written once, its `next` link set, when the next leaf opens.
pub struct BulkLoader {
    pool: Arc<BufferPool>,
    key_len: usize,
    /// Bytes a node's entries may take (`DIR + key + value` each).
    limit: usize,
    /// The open leaf's page image.
    node: Box<PageBuf>,
    /// Every leaf's first key, `key_len` bytes each, in leaf order.
    first_keys: Vec<u8>,
    /// Every leaf's page, in leaf order; the last is the open leaf.
    leaves: Vec<PageId>,
    len: u64,
}

impl BulkLoader {
    /// A load of `key_len`-byte keys whose nodes fill to `fill` (clamped
    /// to `0.3..=1.0`) of their room.
    pub fn new(pool: Arc<BufferPool>, key_len: usize, fill: f64) -> Result<Self, AccessError> {
        if key_len == 0 || key_len > 64 {
            return Err(AccessError::BadKeyLen(key_len));
        }
        Ok(BulkLoader {
            pool,
            key_len,
            limit: ((PAGE_SIZE - HDR) as f64 * fill.clamp(0.3, 1.0)) as usize,
            node: Box::new([0; PAGE_SIZE]),
            first_keys: Vec::new(),
            leaves: Vec::new(),
            len: 0,
        })
    }

    /// Append `(key, value)`, which must sort after every key pushed
    /// before it, and return the leaf page it landed on.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> Result<PageId, AccessError> {
        let key_len = self.key_len;
        if key.len() != key_len {
            return Err(AccessError::BadKeyLen(key.len()));
        }
        if key_len + value.len() > MAX_BTREE_ENTRY {
            return Err(AccessError::EntryTooLarge);
        }
        // The open leaf holds the previous key: a leaf opens only for the
        // entry about to land on it.
        let n = node::count(&self.node[..]);
        if n > 0 && key <= node::entry_key(&self.node[..], n - 1, key_len) {
            return Err(AccessError::UnsortedBulkLoad);
        }
        let used = PAGE_SIZE - node::free_end(&self.node[..]) + n * DIR;
        if n == 0 || used + DIR + key_len + value.len() > self.limit {
            self.open_leaf(key)?;
        }
        let d = &mut self.node[..];
        node::insert_entry(d, node::count(d), key, value, key_len);
        self.len += 1;
        Ok(*self.leaves.last().expect("a leaf is open"))
    }

    /// Allocate the next leaf, link the open one to it and write it out.
    fn open_leaf(&mut self, first_key: &[u8]) -> Result<(), AccessError> {
        let pid = self.pool.allocate_page()?;
        if !self.leaves.is_empty() {
            node::set_next(&mut self.node[..], pid);
            self.write_leaf()?;
        }
        self.node.fill(0);
        node::init(&mut self.node[..], true);
        self.first_keys.extend_from_slice(first_key);
        self.leaves.push(pid);
        Ok(())
    }

    /// Copy the open leaf's image onto its page.
    fn write_leaf(&self) -> Result<(), AccessError> {
        let leaf = *self.leaves.last().expect("a leaf is open");
        self.pool
            .write(leaf, |mut p| p.bytes_mut().copy_from_slice(&self.node[..]))?;
        Ok(())
    }

    /// Write the last leaf and build the internal levels over the leaves'
    /// first keys, bottom up; no entries give [`BTreeFile::create`]'s tree.
    pub fn finish(self) -> Result<BTreeFile, AccessError> {
        if self.leaves.is_empty() {
            return BTreeFile::create(self.pool, self.key_len);
        }
        self.write_leaf()?;
        let (pool, key_len) = (self.pool, self.key_len);
        let (mut keys, mut pages) = (self.first_keys, self.leaves);
        let (first_leaf, leaf_pages) = (pages[0], pages.len() as u32);
        let per_node = (self.limit / (DIR + key_len + 4)).max(2) + 1;
        let mut height = 1u32;
        while pages.len() > 1 {
            height += 1;
            let mut upper = Vec::new();
            for (children, keys) in pages.chunks(per_node).zip(keys.chunks(per_node * key_len)) {
                let pid = pool.allocate_page()?;
                pool.write(pid, |mut p| {
                    let d = p.bytes_mut();
                    node::init(d, false);
                    node::set_next(d, children[0]);
                    let separators = keys.chunks(key_len).zip(children).skip(1);
                    for (i, (key, child)) in separators.enumerate() {
                        node::insert_entry(d, i, key, &child.to_le_bytes(), key_len);
                    }
                })?;
                upper.push(pid);
            }
            let firsts = keys.chunks(per_node * key_len).flat_map(|k| &k[..key_len]);
            keys = firsts.copied().collect();
            pages = upper;
        }
        Ok(BTreeFile {
            pool,
            key_len,
            root: SyncCell::new(pages[0]),
            first_leaf: SyncCell::new(first_leaf),
            len: SyncCell::new(self.len),
            height: SyncCell::new(height),
            leaf_pages: SyncCell::new(leaf_pages),
        })
    }
}

/// A forward walk of a leaf chain, one pinned visit per leaf. Every
/// leaf scan — the buffering [`BTreeRange`] and the in-place
/// [`BTreeFile::visit_range`] and [`BTreeFile::merge_scan`] — reads its
/// leaves through this walker, so the phase tag is one piece of code.
struct LeafWalker {
    pool: Arc<BufferPool>,
    next_leaf: PageId,
}

impl LeafWalker {
    /// Run `f` over the next leaf's bytes under its page pin and step to
    /// its successor; `None` once the chain is exhausted (nothing read).
    fn visit<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>, BufferError> {
        if self.next_leaf == NO_PAGE {
            return Ok(None);
        }
        let leaf = self.next_leaf;
        let _phase = PhaseGuard::enter_default(Phase::HeapFetch);
        let (out, next) = self.pool.read(leaf, |p| {
            let d = p.bytes();
            (f(d), node::next(d))
        })?;
        self.next_leaf = next;
        Ok(Some(out))
    }
}

/// Streaming, leaf-at-a-time range scan (see [`BTreeFile::range`]),
/// copying every entry out.
///
/// An `Iterator` has no error channel: a leaf that cannot be read (a
/// disk error, or no free frame) **panics** in `next`. Callers that must
/// survive that use [`BTreeFile::visit_range`], the fallible form.
pub struct BTreeRange {
    leaves: LeafWalker,
    key_len: usize,
    lo: Vec<u8>,
    hi: Vec<u8>,
    buffered: std::collections::VecDeque<(Vec<u8>, Vec<u8>)>,
    done: bool,
}

impl Iterator for BTreeRange {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.buffered.pop_front() {
                return Some(item);
            }
            if self.done {
                return None;
            }
            let (key_len, lo, hi) = (self.key_len, &self.lo, &self.hi);
            let (entries, past_hi) = self
                .leaves
                .visit(|d| {
                    let mut out = Vec::new();
                    let mut past = false;
                    for i in 0..node::count(d) {
                        let k = node::entry_key(d, i, key_len);
                        if k < lo.as_slice() {
                            continue;
                        }
                        if k > hi.as_slice() {
                            past = true;
                            break;
                        }
                        out.push((k.to_vec(), node::entry_val(d, i, key_len).to_vec()));
                    }
                    (out, past)
                })
                .expect("leaf chain page must be readable")?;
            self.done = past_hi;
            self.buffered.extend(entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    fn key8(k: u64) -> Vec<u8> {
        k.to_be_bytes().to_vec()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.get(&key8(5)).unwrap(), None);
        assert_eq!(t.scan_all().count(), 0);
        assert_eq!(t.range(&key8(0), &key8(100)).unwrap().count(), 0);
        assert!(!t.delete(&key8(1)).unwrap());
    }

    /// An insert that splits a full leaf pins it three times: the read
    /// that finds it full, the split's read and the split's write. With
    /// the new right leaf's write and the new root's, a root leaf's split
    /// is five pins, hits and misses.
    #[test]
    fn a_leaf_split_pins_the_leaf_three_times() {
        let pool = Arc::new(BufferPool::builder().capacity(8).telemetry(true).build());
        let hits = || -> u64 {
            let shards = pool.telemetry().expect("telemetry");
            shards.iter().map(|s| s.hits + s.misses).sum()
        };
        let t = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
        let val = [7u8; 100];
        let mut k = 0;
        loop {
            let before = hits();
            t.insert(&key8(k), &val).unwrap();
            if t.height() == 2 {
                assert_eq!(hits() - before, 5, "key {k}");
                break;
            }
            assert_eq!(hits() - before, 2, "key {k}: a read and a write");
            k += 1;
        }
    }

    /// On a height-2 tree an insert that splits nothing pins the root
    /// once, on the read that names the child, then the leaf for a read
    /// and a write: three pins, hits and misses.
    #[test]
    fn an_insert_pins_each_internal_node_once() {
        let pool = Arc::new(BufferPool::builder().capacity(8).telemetry(true).build());
        let pins = || -> u64 {
            let shards = pool.telemetry().expect("telemetry");
            shards.iter().map(|s| s.hits + s.misses).sum()
        };
        let t = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
        let val = [7u8; 100];
        let mut k = 0;
        while t.height() < 2 {
            t.insert(&key8(k), &val).unwrap();
            k += 1;
        }
        for k in k..k + 5 {
            let before = pins();
            t.insert(&key8(k), &val).unwrap();
            assert_eq!(t.height(), 2, "key {k} split nothing above the leaf");
            assert_eq!(pins() - before, 3, "key {k}: the root once, the leaf twice");
        }
    }

    /// When a leaf's separator does not fit in a full root, the root goes
    /// straight from the descent's read pin to its split, with no write
    /// pin that changes nothing first. On a height-2 tree that insert
    /// pins the root once to descend, the leaf four times (the read that
    /// finds it full, the split's read and write, the new right leaf's
    /// write), the root three times (the split's read and write, the new
    /// right node's write) and the new root once: nine pins, hits and
    /// misses.
    #[test]
    fn an_internal_split_pins_the_node_without_an_unchanged_write() {
        let pool = Arc::new(BufferPool::builder().capacity(8).telemetry(true).build());
        let pins = || -> u64 {
            let shards = pool.telemetry().expect("telemetry");
            shards.iter().map(|s| s.hits + s.misses).sum()
        };
        let t = BTreeFile::create(Arc::clone(&pool), 8).unwrap();
        let val = [7u8; 100];
        let mut k = 0;
        loop {
            let (height, before) = (t.height(), pins());
            t.insert(&key8(k), &val).unwrap();
            let cost = pins() - before;
            if height == 2 && t.height() == 3 {
                assert_eq!(cost, 9, "key {k}: the root's split");
                break;
            }
            if height == 2 {
                assert!(cost == 3 || cost == 6, "key {k}: {cost} pins");
            }
            k += 1;
        }
        t.validate().unwrap();
    }

    #[test]
    fn insert_get_small() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(t.insert(&key8(k), format!("v{k}").as_bytes()).unwrap());
        }
        assert_eq!(t.len(), 5);
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(
                t.get(&key8(k)).unwrap().unwrap(),
                format!("v{k}").into_bytes()
            );
        }
        assert_eq!(t.get(&key8(4)).unwrap(), None);
    }

    #[test]
    fn upsert_replaces() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        assert!(t.insert(&key8(1), b"old").unwrap());
        assert!(!t.insert(&key8(1), b"new").unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key8(1)).unwrap().unwrap(), b"new");
        // Growing replacement.
        assert!(!t.insert(&key8(1), b"considerably longer value").unwrap());
        assert_eq!(
            t.get(&key8(1)).unwrap().unwrap(),
            b"considerably longer value"
        );
    }

    #[test]
    fn many_inserts_match_btreemap_model() {
        let t = BTreeFile::create(pool(16), 8).unwrap();
        let mut model = BTreeMap::new();
        // Insert in a scrambled order with ~120-byte values: forces multiple
        // levels of splits.
        let mut k = 1u64;
        for _ in 0..2000 {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = k % 5000;
            let val = vec![(key % 251) as u8; 100 + (key % 40) as usize];
            t.insert(&key8(key), &val).unwrap();
            model.insert(key, val);
        }
        assert_eq!(t.len(), model.len() as u64);
        assert!(t.height() >= 2);
        for (key, val) in &model {
            assert_eq!(t.get(&key8(*key)).unwrap().unwrap(), *val, "key {key}");
        }
        // Full scan is sorted and complete.
        let scanned: Vec<u64> = t
            .scan_all()
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn range_scan_bounds_are_inclusive() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        for k in 0..100u64 {
            t.insert(&key8(k), &[k as u8]).unwrap();
        }
        let got: Vec<u64> = t
            .range(&key8(10), &key8(20))
            .unwrap()
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        assert_eq!(got, (10..=20).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_across_leaves() {
        let t = BTreeFile::create(pool(16), 8).unwrap();
        for k in 0..1000u64 {
            t.insert(&key8(k), &[0u8; 64]).unwrap();
        }
        assert!(t.leaf_pages() > 1);
        let got = t.range(&key8(100), &key8(899)).unwrap().count();
        assert_eq!(got, 800);
    }

    #[test]
    fn delete_removes_entries() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        for k in 0..50u64 {
            t.insert(&key8(k), b"x").unwrap();
        }
        for k in (0..50u64).step_by(2) {
            assert!(t.delete(&key8(k)).unwrap());
        }
        assert_eq!(t.len(), 25);
        for k in 0..50u64 {
            assert_eq!(t.get(&key8(k)).unwrap().is_some(), k % 2 == 1);
        }
    }

    #[test]
    fn update_only_touches_existing() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        t.insert(&key8(1), b"aaa").unwrap();
        assert!(t.update(&key8(1), b"bbb").unwrap());
        assert_eq!(t.get(&key8(1)).unwrap().unwrap(), b"bbb");
        assert!(!t.update(&key8(2), b"nope").unwrap());
        assert_eq!(t.get(&key8(2)).unwrap(), None);
        assert_eq!(t.len(), 1);
    }

    /// A full leaf of small entries takes a largest-size value in its
    /// middle: the entry crossing the byte midpoint would overfill the
    /// left page, so it goes right.
    #[test]
    fn a_split_places_a_large_middle_entry_where_it_fits() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        for k in 0..39u64 {
            t.insert(&key8(k), &[k as u8; 40]).unwrap();
        }
        assert_eq!(t.leaf_pages(), 1, "39 entries of 52 bytes fill one leaf");
        let big = vec![0xEE; MAX_BTREE_ENTRY - 8];
        assert!(t.update(&key8(20), &big).unwrap());
        t.validate().unwrap();
        assert_eq!(t.leaf_pages(), 2);
        assert_eq!(t.get(&key8(20)).unwrap().unwrap(), big);
        for k in (0..39u64).filter(|&k| k != 20) {
            assert_eq!(t.get(&key8(k)).unwrap().unwrap(), [k as u8; 40]);
        }
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let p = pool(16);
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..3000u64)
            .map(|k| (key8(k), vec![(k % 256) as u8; 90]))
            .collect();
        let t = BTreeFile::bulk_load(Arc::clone(&p), 8, entries.clone(), DEFAULT_FILL).unwrap();
        assert_eq!(t.len(), 3000);
        for (k, v) in entries.iter().step_by(97) {
            assert_eq!(t.get(k).unwrap().unwrap(), *v);
        }
        let scanned: Vec<Vec<u8>> = t.scan_all().map(|(k, _)| k).collect();
        let expect: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(scanned, expect);
        // Tree accepts further inserts after bulk load.
        t.insert(&key8(999_999), b"late").unwrap();
        assert_eq!(t.get(&key8(999_999)).unwrap().unwrap(), b"late");
    }

    #[test]
    fn bulk_load_rejects_unsorted_and_duplicate() {
        let p = pool(8);
        let unsorted = vec![(key8(2), vec![]), (key8(1), vec![])];
        assert!(matches!(
            BTreeFile::bulk_load(Arc::clone(&p), 8, unsorted, DEFAULT_FILL),
            Err(AccessError::UnsortedBulkLoad)
        ));
        let dup = vec![(key8(1), vec![]), (key8(1), vec![])];
        assert!(matches!(
            BTreeFile::bulk_load(p, 8, dup, DEFAULT_FILL),
            Err(AccessError::UnsortedBulkLoad)
        ));
    }

    #[test]
    fn bulk_load_empty_gives_empty_tree() {
        let t = BTreeFile::bulk_load(pool(8), 8, Vec::new(), DEFAULT_FILL).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.scan_all().count(), 0);
    }

    #[test]
    fn oversized_entries_rejected() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        let huge = vec![0u8; MAX_BTREE_ENTRY];
        assert!(matches!(
            t.insert(&key8(1), &huge),
            Err(AccessError::EntryTooLarge)
        ));
        let ok = vec![0u8; MAX_BTREE_ENTRY - 8];
        t.insert(&key8(1), &ok).unwrap();
    }

    #[test]
    fn wrong_key_len_rejected() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        assert!(matches!(t.get(&[1u8; 4]), Err(AccessError::BadKeyLen(4))));
        assert!(matches!(
            t.insert(&[1u8; 9], b""),
            Err(AccessError::BadKeyLen(9))
        ));
        let key = key8(1);
        t.insert(&key, b"v").unwrap();
        let keys: [&[u8]; 2] = [&key, &[1u8; 4]];
        assert!(matches!(
            t.merge_scan(keys, |_, _| Ok::<(), AccessError>(())),
            Err(AccessError::BadKeyLen(4))
        ));
    }

    #[test]
    fn validator_accepts_trees_built_every_way() {
        // Bulk-loaded.
        let entries: Vec<_> = (0..2500u64).map(|k| (key8(k), vec![3u8; 80])).collect();
        let t = BTreeFile::bulk_load(pool(32), 8, entries, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        // Incrementally built with scrambled inserts and deletes.
        let t = BTreeFile::create(pool(32), 8).unwrap();
        let mut k = 99u64;
        for _ in 0..1500 {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.insert(&key8(k % 4000), &[1u8; 100]).unwrap();
        }
        for d in (0..4000u64).step_by(7) {
            t.delete(&key8(d)).unwrap();
        }
        t.validate().unwrap();
        // Empty.
        BTreeFile::create(pool(8), 8).unwrap().validate().unwrap();
    }

    #[test]
    fn mass_deletion_merges_nodes_and_collapses_height() {
        let p = pool(64);
        let entries: Vec<_> = (0..5000u64).map(|k| (key8(k), vec![7u8; 90])).collect();
        let t = BTreeFile::bulk_load(Arc::clone(&p), 8, entries, DEFAULT_FILL).unwrap();
        let tall = t.height();
        assert!(tall >= 3);
        // Delete all but a sliver.
        for k in 0..5000u64 {
            if k % 100 != 0 {
                assert!(t.delete(&key8(k)).unwrap());
            }
        }
        assert_eq!(t.len(), 50);
        t.validate().unwrap();
        assert!(
            t.height() < tall,
            "mass deletion must collapse levels ({} -> {})",
            tall,
            t.height()
        );
        // Survivors intact, in order, and the tree still accepts inserts.
        let keys: Vec<u64> = t
            .scan_all()
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        assert_eq!(keys, (0..5000).step_by(100).collect::<Vec<_>>());
        for k in 0..200u64 {
            t.insert(&key8(k * 3 + 1), &[1u8; 90]).unwrap();
        }
        t.validate().unwrap();
    }

    #[test]
    fn deletion_recycles_pages() {
        let p = pool(64);
        let entries: Vec<_> = (0..4000u64).map(|k| (key8(k), vec![5u8; 90])).collect();
        let t = BTreeFile::bulk_load(Arc::clone(&p), 8, entries, DEFAULT_FILL).unwrap();
        for k in 0..4000u64 {
            if k % 50 != 0 {
                t.delete(&key8(k)).unwrap();
            }
        }
        t.validate().unwrap();
        assert!(
            p.free_pages() > 10,
            "merged-away pages must reach the free list"
        );
        let before = p.num_pages();
        // Rebuilding a relation of similar size reuses the freed pages.
        for k in 10_000..10_500u64 {
            t.insert(&key8(k), &[9u8; 90]).unwrap();
        }
        assert!(
            p.num_pages() - before < 40,
            "inserts should mostly reuse freed pages"
        );
        t.validate().unwrap();
    }

    #[test]
    fn delete_everything_then_reuse() {
        let t = BTreeFile::create(pool(32), 8).unwrap();
        for k in 0..800u64 {
            t.insert(&key8(k), &[2u8; 100]).unwrap();
        }
        for k in 0..800u64 {
            assert!(t.delete(&key8(k)).unwrap());
        }
        assert!(t.is_empty());
        t.validate().unwrap();
        assert_eq!(t.scan_all().count(), 0);
        // Reuse after total deletion.
        t.insert(&key8(42), b"back").unwrap();
        assert_eq!(t.get(&key8(42)).unwrap().unwrap(), b"back");
        t.validate().unwrap();
    }

    #[test]
    fn validator_catches_len_divergence() {
        let t = BTreeFile::create(pool(8), 8).unwrap();
        t.insert(&key8(1), b"x").unwrap();
        // Corrupt the in-memory length.
        t.len.set(5);
        let err = t.validate().unwrap_err();
        assert!(err.contains("len()"), "got {err}");
    }

    /// Key lengths up to 24 bytes, with the ones the trees use (8-byte
    /// test keys, 10-byte OIDs, 19-byte cluster keys) and 16 drawn often.
    fn key_len() -> impl Strategy<Value = usize> {
        prop_oneof![Just(8usize), Just(10), Just(16), Just(19), 1usize..=24]
    }

    proptest! {
        /// The word-wise compare is the slice compare: over random pairs,
        /// and over pairs that share a prefix and differ only from some
        /// byte inside the last (possibly overlapping) word on.
        #[test]
        fn cmp_key_equals_the_slice_compare(
            n in key_len(),
            a in proptest::collection::vec(any::<u8>(), 24..25),
            b in proptest::collection::vec(any::<u8>(), 24..25),
            back in 0usize..8,
        ) {
            let (a, b) = (&a[..n], &b[..n]);
            prop_assert_eq!(node::cmp_key(a, b), a.cmp(b));
            prop_assert_eq!(node::cmp_key(a, a), std::cmp::Ordering::Equal);
            let at = n - 1 - back % n.min(8);
            let c = [&a[..at], &b[at..]].concat();
            prop_assert_eq!(node::cmp_key(a, &c), a.cmp(&c[..]), "differ from byte {}", at);
            prop_assert_eq!(node::cmp_key(&c, a), c[..].cmp(a), "differ from byte {}", at);
        }
    }

    #[test]
    fn point_lookup_cost_is_height_when_cold() {
        let p = pool(4);
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            (0..5000u64).map(|k| (key8(k), vec![7u8; 80])).collect();
        let t = BTreeFile::bulk_load(Arc::clone(&p), 8, entries, DEFAULT_FILL).unwrap();
        p.flush_and_clear().unwrap();
        let before = p.stats().reads();
        t.get(&key8(2500)).unwrap().unwrap();
        let reads = p.stats().reads() - before;
        assert_eq!(
            reads,
            t.height() as u64,
            "cold lookup reads one page per level"
        );
    }
}
