//! # cor-access
//!
//! Storage structures over the page store — the INGRES access-method
//! analogues the paper's experiments rely on:
//!
//! * [`heap`] — heap files (the BFS temporaries and sort runs);
//! * [`btree`] — B-trees on byte-comparable keys (`ParentRel`, `ChildRel`
//!   and `ClusterRel` are all "structured as B-trees" in the paper);
//! * [`isam`] — the static ISAM index kept on `ClusterRel.OID`;
//! * [`hash`] — static hash files (the `Cache` relation is "maintained as
//!   a hash relation, hashed on hashkey");
//! * [`sort`] — external merge sort feeding the BFS merge join;
//! * [`join`] — the merge join;
//! * [`record`] — the tuple ⇄ byte-record codec.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod catalog;
pub mod hash;
pub mod heap;
pub mod isam;
pub mod join;
pub mod record;
pub mod sort;
mod sync_cell;

pub use btree::{BTreeFile, BTreeMeta, BTreeRange, BulkLoader, DEFAULT_FILL, MAX_BTREE_ENTRY};
pub use catalog::{Catalog, CatalogError};
pub use hash::{fnv1a64, HashFile, HashMeta};
pub use heap::{HeapFile, HeapScan, RecordId};
pub use isam::IsamIndex;
pub use join::{merge_join, MergeJoin};
pub use record::{decode, encode, put_bytes, put_int, put_oid, put_oid_list, CodecError};
pub use sort::{external_sort, SortedStream, DEFAULT_WORK_MEM};

use cor_pagestore::BufferError;

/// Errors from access-method operations.
#[derive(Debug)]
pub enum AccessError {
    /// The buffer pool or disk failed.
    Buffer(BufferError),
    /// A key of the wrong length was supplied.
    BadKeyLen(usize),
    /// A key/value pair too large for the access method.
    EntryTooLarge,
    /// Bulk-load input was not strictly ascending.
    UnsortedBulkLoad,
    /// A stored record failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::Buffer(e) => write!(f, "buffer error: {e}"),
            AccessError::BadKeyLen(n) => write!(f, "bad key length {n}"),
            AccessError::EntryTooLarge => write!(f, "entry too large for access method"),
            AccessError::UnsortedBulkLoad => write!(f, "bulk load input not strictly ascending"),
            AccessError::Codec(e) => write!(f, "record codec error: {e}"),
        }
    }
}

impl std::error::Error for AccessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccessError::Buffer(e) => Some(e),
            AccessError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BufferError> for AccessError {
    fn from(e: BufferError) -> Self {
        AccessError::Buffer(e)
    }
}

impl From<CodecError> for AccessError {
    fn from(e: CodecError) -> Self {
        AccessError::Codec(e)
    }
}
