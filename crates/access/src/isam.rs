//! Static ISAM indexes.
//!
//! The paper keeps a secondary index on `ClusterRel.OID` to randomly access
//! clustered objects by OID: "In our environment there are no insertions or
//! deletions, and hence the index is static. Consequently, it is maintained
//! as an isam structure."
//!
//! An ISAM structure is a fully-packed, never-restructured search tree —
//! exactly what a bulk-loaded B-tree is before any insert. [`IsamIndex`]
//! is therefore a read-only facade over a 100%-fill bulk-loaded
//! [`BTreeFile`]: identical page layout and identical I/O behaviour
//! (one page per level per cold probe), with mutation statically removed.

use crate::btree::{BTreeFile, BulkLoader};
use crate::AccessError;
use cor_pagestore::BufferPool;
use std::sync::Arc;

/// A read-only index from fixed-length keys to byte payloads.
pub struct IsamIndex {
    tree: BTreeFile,
}

impl IsamIndex {
    /// Build the index from strictly ascending `(key, payload)` pairs.
    pub fn build(
        pool: Arc<BufferPool>,
        key_len: usize,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<Self, AccessError> {
        let tree = BTreeFile::bulk_load(pool, key_len, entries, 1.0)?;
        Ok(IsamIndex { tree })
    }

    /// Build the index from what `fill` pushes, in ascending key order.
    /// ISAM files are packed: fill factor 1.0.
    pub fn build_with<E: From<AccessError>>(
        pool: Arc<BufferPool>,
        key_len: usize,
        fill: impl FnOnce(&mut BulkLoader) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut loader = BulkLoader::new(pool, key_len, 1.0)?;
        fill(&mut loader)?;
        Ok(IsamIndex {
            tree: loader.finish()?,
        })
    }

    /// Probe the index **in place**: `f` runs over the payload under the
    /// leaf's page pin (see [`BTreeFile::get_with`]); `Ok(None)` when the
    /// key is absent.
    pub fn lookup_with<R, E>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> Result<R, E>,
    ) -> Result<Option<R>, E>
    where
        E: From<AccessError>,
    {
        self.tree.get_with(key, f)
    }

    /// Number of indexed keys.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Index height in pages (cold probe cost).
    pub fn height(&self) -> u32 {
        self.tree.height()
    }

    /// Snapshot of the index's metadata for catalog persistence.
    pub fn metadata(&self) -> crate::btree::BTreeMeta {
        self.tree.metadata()
    }

    /// Reattach to a persisted index.
    pub fn from_metadata(
        pool: Arc<BufferPool>,
        meta: crate::btree::BTreeMeta,
    ) -> Result<Self, AccessError> {
        Ok(IsamIndex {
            tree: BTreeFile::from_metadata(pool, meta)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    fn key8(k: u64) -> Vec<u8> {
        k.to_be_bytes().to_vec()
    }

    fn lookup(idx: &IsamIndex, key: &[u8]) -> Option<Vec<u8>> {
        idx.lookup_with(key, |v| Ok::<_, AccessError>(v.to_vec()))
            .unwrap()
    }

    #[test]
    fn build_and_probe() {
        let entries: Vec<_> = (0..10_000u64)
            .map(|k| (key8(k), (k * 3).to_le_bytes().to_vec()))
            .collect();
        let idx = IsamIndex::build(pool(16), 8, entries).unwrap();
        assert_eq!(idx.len(), 10_000);
        for k in [0u64, 1, 4999, 9999] {
            let payload = lookup(&idx, &key8(k)).unwrap();
            assert_eq!(u64::from_le_bytes(payload.try_into().unwrap()), k * 3);
        }
        assert_eq!(lookup(&idx, &key8(10_000)), None);
    }

    #[test]
    fn cold_probe_costs_height_pages() {
        let p = pool(4);
        let entries: Vec<_> = (0..10_000u64).map(|k| (key8(k), vec![1u8; 8])).collect();
        let idx = IsamIndex::build(Arc::clone(&p), 8, entries).unwrap();
        p.flush_and_clear().unwrap();
        let before = p.stats().reads();
        lookup(&idx, &key8(7777)).unwrap();
        assert_eq!(p.stats().reads() - before, idx.height() as u64);
    }

    #[test]
    fn empty_index() {
        let idx = IsamIndex::build(pool(4), 8, Vec::new()).unwrap();
        assert!(idx.is_empty());
        assert_eq!(lookup(&idx, &key8(0)), None);
    }
}
