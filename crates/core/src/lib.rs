//! # complexobj
//!
//! A from-scratch reproduction of the system studied in
//! **Jhingran & Stonebraker, "Alternatives in Complex Object
//! Representation: A Performance Perspective"** (UCB/ERL M89/18, ICDE
//! 1990).
//!
//! The paper classifies complex-object representations into a matrix of
//! primary representation (procedural / OID / value-based) × cached
//! representation (none / OIDs / values) and experimentally studies the
//! OID column, adding a clustering axis. This crate implements:
//!
//! * the representation matrix model ([`matrix`]);
//! * units of subobjects and the sharing algebra ([`mod@unit`]);
//! * the experiment database in both the standard and the clustered
//!   physical representation ([`database`], [`cluster`]);
//! * the disk-resident, I-lock-invalidated unit-value cache
//!   ([`cache`], [`ilock`]);
//! * the six query-processing strategies — DFS, BFS, BFSNODUP, DFSCACHE,
//!   DFSCLUST and SMART ([`strategies`]);
//! * query/update types with ParCost/ChildCost accounting ([`query`]);
//! * the cost model: the strategies' plan rules and the paper's
//!   expected-I/O formulas ([`cost`]).
//!
//! ```
//! use complexobj::database::{CorDatabase, DatabaseSpec, ObjectSpec, SubobjectSpec, CHILD_REL_BASE};
//! use complexobj::query::{RetAttr, RetrieveQuery};
//! use complexobj::strategies::{execute_retrieve, ExecOptions};
//! use complexobj::Strategy;
//! use cor_pagestore::{BufferPool, IoStats, MemDisk};
//! use cor_relational::Oid;
//! use std::sync::Arc;
//!
//! // Two complex objects sharing one subobject.
//! let c = |k| Oid::new(CHILD_REL_BASE, k);
//! let spec = DatabaseSpec {
//!     parents: vec![
//!         ObjectSpec { key: 0, rets: [1, 2, 3], dummy: "pad".into(), children: vec![c(0), c(1)] },
//!         ObjectSpec { key: 1, rets: [4, 5, 6], dummy: "pad".into(), children: vec![c(1)] },
//!     ],
//!     child_rels: vec![(0..2)
//!         .map(|k| SubobjectSpec { oid: c(k), rets: [10 * k as i64, 0, 0], dummy: "p".into() })
//!         .collect()],
//! };
//! let pool = Arc::new(BufferPool::builder().capacity(100).build());
//! let db = CorDatabase::build_standard(pool, &spec, None).unwrap();
//!
//! let query = RetrieveQuery { lo: 0, hi: 1, attr: RetAttr::Ret1 };
//! let out = execute_retrieve(&db, Strategy::Dfs, &query, &ExecOptions::default()).unwrap();
//! let mut values = out.values.clone();
//! values.sort();
//! assert_eq!(values, vec![0, 10, 10]); // the shared subobject appears twice
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cluster;
pub mod cost;
pub mod database;
pub mod ilock;
pub mod matrix;
pub mod multilevel;
pub mod persist;
pub mod procedural;
pub mod quel;
pub mod query;
pub mod strategies;
pub mod unit;
pub mod valuebased;

pub use cache::{CacheCounters, EvictionPolicy, UnitCache, DEFAULT_SIZE_CACHE};
pub use cluster::ClusterAssignment;
pub use database::{CacheConfig, CorDatabase, DatabaseSpec, ObjectSpec, Storage, SubobjectSpec};
pub use ilock::{HashKey, ILockTable};
pub use matrix::{CachePlacement, CachedRepr, PrimaryRepr, ReprPoint, Strategy};
pub use multilevel::{bfs_multilevel, dfs_multilevel, execute_multilevel, MultiDotQuery};
pub use persist::{
    SavedCacheState, SavedOidDb, SavedProcCache, SavedProcDb, SavedStorage, SavedUnitCache,
};
pub use quel::{parse as parse_quel, QuelError, QuelStatement};
pub use query::{apply_update, Query, RetAttr, RetrieveQuery, StrategyOutput, UpdateQuery};
pub use strategies::{execute_retrieve, ExecOptions, JoinChoice};
pub use unit::{hashkey_of, measure_sharing, SharingFactors, Unit};
pub use valuebased::{value_parent_schema, ValueDatabase, VALUE_PARENT_REL};

use cor_access::AccessError;
use cor_relational::{Oid, RelId};

/// Errors from complex-object operations.
#[derive(Debug)]
pub enum CorError {
    /// Storage layer failed.
    Access(AccessError),
    /// A referenced subobject does not exist.
    DanglingOid(Oid),
    /// The operation needs the other physical representation.
    WrongRepresentation(&'static str),
    /// A relation id outside the database was referenced.
    UnknownRelation(RelId),
    /// The strategy needs a cache and none is attached.
    NoCache,
    /// The durability subsystem (WAL append, fsync, checkpoint) failed.
    Durability(String),
    /// The store holds pages but no engine catalog; it was not created by
    /// the lifecycle API (or its catalog page was destroyed).
    CatalogMissing,
    /// The store's catalog was written by an incompatible on-disk layout.
    CatalogVersion {
        /// Version found on disk.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A trace is already being collected on this thread, and the
    /// operation needs one of its own (traces do not nest).
    TraceActive,
}

impl std::fmt::Display for CorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorError::Access(e) => write!(f, "access error: {e}"),
            CorError::DanglingOid(o) => write!(f, "dangling OID {o}"),
            CorError::WrongRepresentation(need) => {
                write!(f, "operation requires the {need} representation")
            }
            CorError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            CorError::NoCache => write!(f, "no unit cache attached to this database"),
            CorError::Durability(msg) => write!(f, "durability failure: {msg}"),
            CorError::CatalogMissing => {
                write!(
                    f,
                    "store has no engine catalog (not created by Engine::create)"
                )
            }
            CorError::CatalogVersion { found, expected } => {
                write!(
                    f,
                    "engine catalog version mismatch: found v{found}, this build expects v{expected}"
                )
            }
            CorError::TraceActive => {
                write!(f, "a trace is already active on this thread")
            }
        }
    }
}

impl std::error::Error for CorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorError::Access(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AccessError> for CorError {
    fn from(e: AccessError) -> Self {
        CorError::Access(e)
    }
}

impl From<cor_pagestore::BufferError> for CorError {
    fn from(e: cor_pagestore::BufferError) -> Self {
        CorError::Access(AccessError::Buffer(e))
    }
}

impl From<cor_access::CodecError> for CorError {
    fn from(e: cor_access::CodecError) -> Self {
        CorError::Access(AccessError::Codec(e))
    }
}
