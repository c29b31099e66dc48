//! # cor-relational
//!
//! Minimal relational data model shared by every layer of the complex-object
//! representation study: object identifiers ([`Oid`]), typed values,
//! and schemas/tuples.
//!
//! Storage structures live in `cor-access`; this crate is pure data model.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod oid;
pub mod schema;
pub mod value;

pub use oid::{Oid, OidHasher, OidMap, RelId, OID_BYTES};
pub use schema::{Column, Schema, Tuple};
pub use value::{Value, ValueType};
