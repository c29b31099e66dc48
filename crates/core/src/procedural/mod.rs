//! The procedural primary representation (Sec. 2.1.1) and its cached
//! variants (Sec. 2.3) — the left column of the representation matrix,
//! studied in detail in \[JHIN88\] and implemented here to complete the
//! matrix.
//!
//! An object's subobjects are identified by a stored retrieve-only query
//! ([`StoredQuery`], kept as QUEL text in the parent tuple, as POSTGRES
//! procedural attributes are). Executing the procedure costs a range scan
//! (indexable key ranges) or a full relation scan (value predicates), so
//! precomputing and caching the result — as OIDs or as values, inside or
//! outside the referencing object — is where the performance action is.

pub mod database;
pub mod exec;
pub mod pcache;
pub mod predicate;

pub use database::{
    proc_parent_schema, ProcCaching, ProcDatabase, ProcDatabaseSpec, ProcObjectSpec, ProcParentRow,
    PROC_PARENT_REL,
};
pub use exec::{apply_proc_update, execute_proc_retrieve};
pub use pcache::{CachedResult, ProcCache, ProcCachedKind};
pub use predicate::{QuelParseError, StoredQuery};
