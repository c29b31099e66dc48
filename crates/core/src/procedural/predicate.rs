//! Stored procedural queries (Sec. 2.1.1).
//!
//! "In a procedural representation, the set of subobjects associated with
//! an object is identified by a procedure, which, when executed, evaluates
//! to the corresponding subobjects. For our purposes, this procedure is a
//! retrieve-only query on the underlying database."
//!
//! The paper (and POSTGRES, which supports this representation) stores
//! the procedure as QUEL text, e.g.
//! `retrieve (person.all) where person.age >= 60`. [`StoredQuery`]
//! round-trips through exactly that surface syntax, restricted to the
//! shapes the experiments need: a key range or a single-attribute value
//! range over one ChildRel.

use cor_access::fnv1a64;
use cor_relational::{Oid, RelId};

/// A retrieve-only query identifying an object's subobjects.
///
/// ```
/// use complexobj::procedural::StoredQuery;
///
/// let q = StoredQuery::RetRange { rel: 10, ret_idx: 0, lo: 60, hi: i64::MAX };
/// let text = q.to_quel();
/// assert_eq!(text, "retrieve (child10.all) where 60 <= child10.ret1 <= 9223372036854775807");
/// assert_eq!(StoredQuery::parse_quel(&text).unwrap(), q);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StoredQuery {
    /// `retrieve (childN.all) where lo <= childN.OID <= hi`
    KeyRange {
        /// The ChildRel queried.
        rel: RelId,
        /// Lowest qualifying primary key.
        lo: u64,
        /// Highest qualifying primary key (inclusive).
        hi: u64,
    },
    /// `retrieve (childN.all) where lo <= childN.retI <= hi`
    RetRange {
        /// The ChildRel queried.
        rel: RelId,
        /// Which `ret` attribute (0-based: 0 → ret1).
        ret_idx: usize,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
}

impl StoredQuery {
    /// The relation this query ranges over.
    pub fn relation(&self) -> RelId {
        match self {
            StoredQuery::KeyRange { rel, .. } | StoredQuery::RetRange { rel, .. } => *rel,
        }
    }

    /// Does a subobject with this OID and these `ret` values qualify?
    pub fn matches(&self, oid: Oid, rets: &[i64; 3]) -> bool {
        match self {
            StoredQuery::KeyRange { rel, lo, hi } => {
                oid.rel == *rel && (*lo..=*hi).contains(&oid.key)
            }
            StoredQuery::RetRange {
                rel,
                ret_idx,
                lo,
                hi,
            } => oid.rel == *rel && (*lo..=*hi).contains(&rets[*ret_idx]),
        }
    }

    /// Cache identity of this procedure: outside caching shares cached
    /// results between objects storing the *same* query, so the hashkey is
    /// a function of the (canonical) query text.
    pub fn hashkey(&self) -> u64 {
        fnv1a64(self.to_quel().as_bytes())
    }

    /// Render as QUEL surface syntax.
    pub fn to_quel(&self) -> String {
        match self {
            StoredQuery::KeyRange { rel, lo, hi } => {
                format!("retrieve (child{rel}.all) where {lo} <= child{rel}.OID <= {hi}")
            }
            StoredQuery::RetRange {
                rel,
                ret_idx,
                lo,
                hi,
            } => {
                let attr = ret_idx + 1;
                format!("retrieve (child{rel}.all) where {lo} <= child{rel}.ret{attr} <= {hi}")
            }
        }
    }

    /// Parse the QUEL surface syntax produced by [`Self::to_quel`].
    pub fn parse_quel(text: &str) -> Result<StoredQuery, QuelParseError> {
        let text = text.trim();
        let rest = text
            .strip_prefix("retrieve (child")
            .ok_or(QuelParseError::Shape("missing 'retrieve (child' prefix"))?;
        let (rel_str, rest) = rest
            .split_once(".all) where ")
            .ok_or(QuelParseError::Shape("missing '.all) where '"))?;
        let rel: RelId = rel_str
            .parse()
            .map_err(|_| QuelParseError::Number("relation id"))?;

        // "<lo> <= child<rel>.<attr> <= <hi>"
        let mut parts = rest.split(" <= ");
        let lo_str = parts
            .next()
            .ok_or(QuelParseError::Shape("missing lower bound"))?;
        let attr_ref = parts
            .next()
            .ok_or(QuelParseError::Shape("missing attribute"))?;
        let hi_str = parts
            .next()
            .ok_or(QuelParseError::Shape("missing upper bound"))?;
        if parts.next().is_some() {
            return Err(QuelParseError::Shape("too many comparisons"));
        }

        let expected_prefix = format!("child{rel}.");
        let attr = attr_ref
            .strip_prefix(&expected_prefix)
            .ok_or(QuelParseError::Shape(
                "attribute references a different relation",
            ))?;
        match attr {
            "OID" => Ok(StoredQuery::KeyRange {
                rel,
                lo: lo_str
                    .parse()
                    .map_err(|_| QuelParseError::Number("key lower bound"))?,
                hi: hi_str
                    .parse()
                    .map_err(|_| QuelParseError::Number("key upper bound"))?,
            }),
            "ret1" | "ret2" | "ret3" => Ok(StoredQuery::RetRange {
                rel,
                ret_idx: (attr.as_bytes()[3] - b'1') as usize,
                lo: lo_str
                    .parse()
                    .map_err(|_| QuelParseError::Number("value lower bound"))?,
                hi: hi_str
                    .parse()
                    .map_err(|_| QuelParseError::Number("value upper bound"))?,
            }),
            other => Err(QuelParseError::UnknownAttribute(other.to_string())),
        }
    }

    /// Can this query be answered with an index range scan (true) or does
    /// it need a full relation scan (false)? ChildRels are B-trees on OID
    /// and carry no secondary indexes on `ret` attributes.
    #[cfg(test)]
    fn is_indexable(&self) -> bool {
        matches!(self, StoredQuery::KeyRange { .. })
    }
}

impl std::fmt::Display for StoredQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_quel())
    }
}

/// Errors from parsing stored-query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuelParseError {
    /// The text does not have the expected overall shape.
    Shape(&'static str),
    /// A numeric literal failed to parse.
    Number(&'static str),
    /// The attribute is not OID or ret1..ret3.
    UnknownAttribute(String),
}

impl std::fmt::Display for QuelParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuelParseError::Shape(s) => write!(f, "malformed stored query: {s}"),
            QuelParseError::Number(what) => write!(f, "malformed number in {what}"),
            QuelParseError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
        }
    }
}

impl std::error::Error for QuelParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quel_roundtrip_key_range() {
        let q = StoredQuery::KeyRange {
            rel: 10,
            lo: 100,
            hi: 250,
        };
        let text = q.to_quel();
        assert_eq!(
            text,
            "retrieve (child10.all) where 100 <= child10.OID <= 250"
        );
        assert_eq!(StoredQuery::parse_quel(&text), Ok(q));
    }

    #[test]
    fn quel_roundtrip_ret_range() {
        let q = StoredQuery::RetRange {
            rel: 11,
            ret_idx: 0,
            lo: 60,
            hi: i64::MAX,
        };
        let text = q.to_quel();
        assert!(text.contains("child11.ret1"));
        assert_eq!(StoredQuery::parse_quel(&text), Ok(q));
        // Negative bounds round-trip too.
        let q = StoredQuery::RetRange {
            rel: 10,
            ret_idx: 2,
            lo: -50,
            hi: -1,
        };
        assert_eq!(StoredQuery::parse_quel(&q.to_quel()), Ok(q));
    }

    #[test]
    fn parse_rejects_malformed_text() {
        for bad in [
            "",
            "select * from person",
            "retrieve (child10.all) where",
            "retrieve (childX.all) where 1 <= childX.OID <= 2",
            "retrieve (child10.all) where 1 <= child11.OID <= 2",
            "retrieve (child10.all) where 1 <= child10.age <= 2",
            "retrieve (child10.all) where 1 <= child10.OID <= 2 <= 3",
        ] {
            assert!(StoredQuery::parse_quel(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn matches_respects_bounds_and_relation() {
        let q = StoredQuery::KeyRange {
            rel: 10,
            lo: 5,
            hi: 9,
        };
        assert!(q.matches(Oid::new(10, 5), &[0, 0, 0]));
        assert!(q.matches(Oid::new(10, 9), &[0, 0, 0]));
        assert!(!q.matches(Oid::new(10, 10), &[0, 0, 0]));
        assert!(!q.matches(Oid::new(11, 5), &[0, 0, 0]));

        let q = StoredQuery::RetRange {
            rel: 10,
            ret_idx: 1,
            lo: 60,
            hi: 100,
        };
        assert!(q.matches(Oid::new(10, 0), &[0, 60, 0]));
        assert!(!q.matches(Oid::new(10, 0), &[60, 0, 0]), "wrong attribute");
        assert!(!q.matches(Oid::new(10, 0), &[0, 59, 0]));
    }

    #[test]
    fn hashkey_shared_by_identical_queries_only() {
        let a = StoredQuery::KeyRange {
            rel: 10,
            lo: 0,
            hi: 9,
        };
        let b = StoredQuery::KeyRange {
            rel: 10,
            lo: 0,
            hi: 9,
        };
        let c = StoredQuery::KeyRange {
            rel: 10,
            lo: 0,
            hi: 10,
        };
        assert_eq!(a.hashkey(), b.hashkey());
        assert_ne!(a.hashkey(), c.hashkey());
    }

    #[test]
    fn indexability() {
        assert!(StoredQuery::KeyRange {
            rel: 10,
            lo: 0,
            hi: 1
        }
        .is_indexable());
        assert!(!StoredQuery::RetRange {
            rel: 10,
            ret_idx: 0,
            lo: 0,
            hi: 1
        }
        .is_indexable());
    }
}
