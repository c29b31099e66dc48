//! Queries and their results (paper Sec. 4).
//!
//! Retrieve queries take the paper's shape:
//!
//! ```text
//! retrieve (ParentRel.children.attr) where val1 <= ParentRel.OID <= val2
//! ```
//!
//! with `attr` randomly chosen among `ret1..ret3` per query, and updates
//! "modify a fixed number of tuples of ChildRel in place". In the presence
//! of clustering both are translated into the equivalent ClusterRel
//! operations (handled inside [`crate::database::CorDatabase`]).

use crate::database::CorDatabase;
use crate::CorError;
use cor_access::CodecError;
use cor_pagestore::IoDelta;
use cor_relational::{Oid, OID_BYTES};
use std::ops::Range;

/// Which retrievable attribute a query projects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetAttr {
    /// `ret1`
    Ret1,
    /// `ret2`
    Ret2,
    /// `ret3`
    Ret3,
}

impl RetAttr {
    /// Column index within the ChildRel schema (oid is column 0).
    pub fn column(self) -> usize {
        match self {
            RetAttr::Ret1 => 1,
            RetAttr::Ret2 => 2,
            RetAttr::Ret3 => 3,
        }
    }

    /// All attributes, for random per-query choice.
    pub const ALL: [RetAttr; 3] = [RetAttr::Ret1, RetAttr::Ret2, RetAttr::Ret3];
}

/// `retrieve (ParentRel.children.attr) where lo <= ParentRel.OID <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrieveQuery {
    /// Lower OID bound (`val1`).
    pub lo: u64,
    /// Upper OID bound (`val2`), inclusive.
    pub hi: u64,
    /// Projected attribute.
    pub attr: RetAttr,
}

impl RetrieveQuery {
    /// Number of ParentRel keys selected (the paper's `NumTop`, for dense
    /// keys).
    pub fn num_top(&self) -> u64 {
        self.hi.saturating_sub(self.lo) + 1
    }
}

/// An update query: set `ret1` of each target subobject, in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateQuery {
    /// Subobjects to modify.
    pub targets: Vec<Oid>,
    /// New `ret1` value.
    pub new_ret1: i64,
}

/// One query of a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// A retrieve.
    Retrieve(RetrieveQuery),
    /// An update.
    Update(UpdateQuery),
}

/// Result of running one retrieve under some strategy.
#[derive(Debug, Clone, Default)]
pub struct StrategyOutput {
    /// Projected attribute values, one per (object, subobject) pair —
    /// shared subobjects appear once per referencing object, exactly as
    /// the paper's multi-dot query semantics produce.
    pub values: Vec<i64>,
    /// I/O charged to accessing the qualifying objects (the paper's
    /// `ParCost`).
    pub par_io: IoDelta,
    /// I/O charged to fetching the subobjects (the paper's `ChildCost`).
    pub child_io: IoDelta,
}

impl StrategyOutput {
    /// `TotCost = ParCost + ChildCost`.
    pub fn total_io(&self) -> u64 {
        self.par_io.total() + self.child_io.total()
    }
}

/// The bytes of `attr` in an encoded ChildRel record. The record layout
/// is `oid (10 B) | ret1 | ret2 | ret3 | dummy`, with 8-byte
/// little-endian integers.
fn ret_field(attr: RetAttr) -> Range<usize> {
    let at = OID_BYTES + 8 * (attr.column() - 1);
    at..at + 8
}

/// Extract `ret{1,2,3}` from an encoded ChildRel record without a full
/// decode.
pub fn extract_ret(record: &[u8], attr: RetAttr) -> Result<i64, CodecError> {
    let b = record.get(ret_field(attr)).ok_or(CodecError::Truncated)?;
    Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

/// Set `ret{1,2,3}` of an encoded ChildRel record in place, leaving the
/// bytes a decode, set and re-encode of the record would give.
pub fn set_ret(record: &mut [u8], attr: RetAttr, v: i64) -> Result<(), CodecError> {
    let b = record
        .get_mut(ret_field(attr))
        .ok_or(CodecError::Truncated)?;
    b.copy_from_slice(&v.to_le_bytes());
    Ok(())
}

/// Read `attr` of subobject `oid` under the page pin of the leaf holding
/// it. The paper's databases never contain dangling OIDs, so an absent
/// subobject is an error, not an empty answer.
pub fn fetch_ret(db: &CorDatabase, oid: Oid, attr: RetAttr) -> Result<i64, CorError> {
    db.with_child_record(oid, |rec| Ok(extract_ret(rec, attr)?))?
        .ok_or(CorError::DanglingOid(oid))
}

/// Iterate the `children` OID list of an encoded ParentRel record without
/// a full decode — no `dummy` string, no `Vec<Value>`, no list copied
/// out. The record layout is `oid (10 B) | ret1 | ret2 | ret3 | dummy |
/// children | cached`, the last three length-prefixed (`u16`,
/// little-endian). Both lengths are checked before the first OID is
/// yielded, so a record cut anywhere in the list is
/// [`CodecError::Truncated`], never a short list.
pub fn parent_children(
    record: &[u8],
) -> Result<impl ExactSizeIterator<Item = Oid> + '_, CodecError> {
    let u16_at = |at: usize| {
        let b = record.get(at..at + 2).ok_or(CodecError::Truncated)?;
        Ok(usize::from(u16::from_le_bytes([b[0], b[1]])))
    };
    let dummy_at = OID_BYTES + 3 * 8;
    let list_at = dummy_at + 2 + u16_at(dummy_at)?;
    let list = list_at + 2..list_at + 2 + u16_at(list_at)? * OID_BYTES;
    let list = record.get(list).ok_or(CodecError::Truncated)?;
    Ok(list
        .chunks_exact(OID_BYTES)
        .map(|c| Oid::from_key_bytes(c).expect("OID_BYTES-long chunk")))
}

/// Apply an update query. Modifies each target subobject in place and, when
/// `maintain_cache` is set on a cache-bearing database, invalidates every
/// cached unit holding an I-lock for a modified subobject (Sec. 3.2).
/// Returns the I/O consumed.
pub fn apply_update(
    db: &CorDatabase,
    update: &UpdateQuery,
    maintain_cache: bool,
) -> Result<IoDelta, CorError> {
    let before = db.pool().stats().snapshot();
    for &oid in &update.targets {
        db.update_child_ret(oid, RetAttr::Ret1, update.new_ret1)?;
        if maintain_cache && db.has_cache() {
            db.invalidate_subobject(oid)?;
        }
    }
    Ok(db.pool().stats().snapshot().since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{child_schema, parent_schema, CHILD_REL_BASE, PARENT_REL};
    use cor_access::{decode, encode};
    use cor_relational::{Tuple, Value};

    #[test]
    fn num_top_counts_inclusive_range() {
        let q = RetrieveQuery {
            lo: 10,
            hi: 19,
            attr: RetAttr::Ret1,
        };
        assert_eq!(q.num_top(), 10);
        let q = RetrieveQuery {
            lo: 5,
            hi: 5,
            attr: RetAttr::Ret2,
        };
        assert_eq!(q.num_top(), 1);
    }

    #[test]
    fn extract_ret_matches_full_decode() {
        let t = Tuple::new(vec![
            Value::Oid(Oid::new(CHILD_REL_BASE, 77)),
            Value::Int(-123),
            Value::Int(456),
            Value::Int(i64::MIN),
            Value::Str("pad pad pad".into()),
        ]);
        let rec = encode(&child_schema(), &t).unwrap();
        assert_eq!(extract_ret(&rec, RetAttr::Ret1), Ok(-123));
        assert_eq!(extract_ret(&rec, RetAttr::Ret2), Ok(456));
        assert_eq!(extract_ret(&rec, RetAttr::Ret3), Ok(i64::MIN));
    }

    fn arb_ret() -> impl proptest::strategy::Strategy<Value = i64> {
        use proptest::prelude::*;
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0), any::<i64>()]
    }

    /// The largest `dummy` of a ChildRel record its B-tree can hold: the
    /// entry is an OID key plus `oid | ret1 | ret2 | ret3 | len | dummy`.
    const MAX_CHILD_DUMMY: usize = cor_access::MAX_BTREE_ENTRY - 2 * OID_BYTES - 3 * 8 - 2;

    proptest::proptest! {
        /// Patching `ret{1,2,3}` in place leaves the bytes a decode, set
        /// and re-encode of the record give, for any rets and any dummy a
        /// ChildRel record can carry.
        #[test]
        fn set_ret_equals_decode_set_encode(
            key in proptest::prelude::any::<u64>(),
            rets in (arb_ret(), arb_ret(), arb_ret()),
            v in arb_ret(),
            attr in 0usize..3,
            dummy in proptest::collection::vec(0x20u8..0x7f, 0..MAX_CHILD_DUMMY + 1),
        ) {
            let attr = RetAttr::ALL[attr];
            let mut t = Tuple::new(vec![
                Value::Oid(Oid::new(CHILD_REL_BASE, key)),
                Value::Int(rets.0),
                Value::Int(rets.1),
                Value::Int(rets.2),
                Value::Str(String::from_utf8(dummy).unwrap()),
            ]);
            let mut rec = encode(&child_schema(), &t).unwrap();
            set_ret(&mut rec, attr, v).unwrap();
            t.set(attr.column(), Value::Int(v));
            proptest::prop_assert_eq!(rec, encode(&child_schema(), &t).unwrap());
        }
    }

    #[test]
    fn parent_children_matches_full_decode() {
        let lists = [
            vec![],
            vec![Oid::new(CHILD_REL_BASE, 3)],
            (0..40)
                .map(|k| Oid::new(CHILD_REL_BASE + 1, k * 7))
                .collect(),
        ];
        for children in lists {
            for cached in [Vec::new(), vec![0xAB; 37]] {
                for dummy in ["", "pad pad pad"] {
                    let t = Tuple::new(vec![
                        Value::Oid(Oid::new(PARENT_REL, 9)),
                        Value::Int(1),
                        Value::Int(-2),
                        Value::Int(3),
                        Value::Str(dummy.into()),
                        Value::OidList(children.clone()),
                        Value::Bytes(cached.clone()),
                    ]);
                    let rec = encode(&parent_schema(), &t).unwrap();
                    let full = decode(&parent_schema(), &rec).unwrap();
                    let list = parent_children(&rec).unwrap();
                    assert_eq!(list.len(), children.len());
                    assert_eq!(list.collect::<Vec<_>>(), full.get(5).as_oid_list().unwrap());
                }
            }
        }
    }

    #[test]
    fn short_records_are_truncated_not_out_of_bounds() {
        let t = Tuple::new(vec![
            Value::Oid(Oid::new(PARENT_REL, 9)),
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Str("dummy".into()),
            Value::OidList(vec![
                Oid::new(CHILD_REL_BASE, 1),
                Oid::new(CHILD_REL_BASE, 2),
            ]),
            Value::Bytes(Vec::new()),
        ]);
        let rec = encode(&parent_schema(), &t).unwrap();
        let cached_prefix = 2;
        // Every cut that loses part of the children list is `Truncated`.
        for len in 0..rec.len() - cached_prefix {
            assert_eq!(
                parent_children(&rec[..len]).err(),
                Some(CodecError::Truncated),
                "cut at {len}"
            );
        }
        assert!(parent_children(&rec[..rec.len() - cached_prefix]).is_ok());
        for attr in RetAttr::ALL {
            let end = OID_BYTES + 8 * attr.column();
            assert_eq!(
                extract_ret(&rec[..end - 1], attr),
                Err(CodecError::Truncated)
            );
            assert!(extract_ret(&rec[..end], attr).is_ok());
        }
    }

    #[test]
    fn ret_attr_columns() {
        assert_eq!(RetAttr::Ret1.column(), 1);
        assert_eq!(RetAttr::Ret3.column(), 3);
        assert_eq!(RetAttr::ALL.len(), 3);
    }
}
