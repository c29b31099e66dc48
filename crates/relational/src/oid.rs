//! Object identifiers.
//!
//! The paper (Sec. 2.2) uses "the simplest OID's that provide location
//! transparency — the concatenation of the relation identifier and the
//! primary key of a tuple". [`Oid`] is exactly that: a 16-bit relation id
//! concatenated with a 64-bit primary key.
//!
//! OIDs order first by relation, then by key, and the byte encoding
//! ([`Oid::to_key_bytes`]) is big-endian so that *byte-wise* comparison of
//! encoded keys matches the logical order — the property B-trees and merge
//! joins rely on.

/// Identifier of a relation within a database.
pub type RelId = u16;

/// A location-transparent object identifier: relation id + primary key.
///
/// ```
/// use cor_relational::Oid;
///
/// let oid = Oid::new(10, 7643);
/// let bytes = oid.to_key_bytes();           // byte-comparable encoding
/// assert_eq!(Oid::from_key_bytes(&bytes), Some(oid));
/// assert!(bytes < Oid::new(10, 7644).to_key_bytes()); // order preserved
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid {
    /// The relation holding the object.
    pub rel: RelId,
    /// The object's primary key within that relation.
    pub key: u64,
}

/// Encoded size of an [`Oid`] in bytes.
pub const OID_BYTES: usize = 10;

impl Oid {
    /// Construct an OID.
    pub const fn new(rel: RelId, key: u64) -> Self {
        Oid { rel, key }
    }

    /// Byte-comparable encoding (big-endian rel, then big-endian key).
    pub fn to_key_bytes(&self) -> [u8; OID_BYTES] {
        let mut out = [0u8; OID_BYTES];
        out[..2].copy_from_slice(&self.rel.to_be_bytes());
        out[2..].copy_from_slice(&self.key.to_be_bytes());
        out
    }

    /// Decode from the byte-comparable encoding.
    pub fn from_key_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != OID_BYTES {
            return None;
        }
        let rel = u16::from_be_bytes([bytes[0], bytes[1]]);
        let mut k = [0u8; 8];
        k.copy_from_slice(&bytes[2..]);
        Some(Oid {
            rel,
            key: u64::from_be_bytes(k),
        })
    }
}

/// A multiply-rotate [`Hasher`](std::hash::Hasher) for maps keyed by
/// [`Oid`]: one rotate, xor and multiply per field instead of SipHash's
/// rounds. OIDs are minted by the database itself, never taken from
/// outside input, so SipHash's resistance to crafted collisions buys
/// nothing on a per-query map that is probed once per reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct OidHasher(u64);

impl std::hash::Hasher for OidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by [`Oid`] under [`OidHasher`].
pub type OidMap<V> = std::collections::HashMap<Oid, V, std::hash::BuildHasherDefault<OidHasher>>;

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.rel, self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrip() {
        let oid = Oid::new(7, 123_456_789);
        assert_eq!(Oid::from_key_bytes(&oid.to_key_bytes()), Some(oid));
    }

    #[test]
    fn byte_order_matches_logical_order() {
        let cases = [
            Oid::new(0, 0),
            Oid::new(0, 1),
            Oid::new(0, u64::MAX),
            Oid::new(1, 0),
            Oid::new(1, 500),
            Oid::new(u16::MAX, u64::MAX),
        ];
        for a in &cases {
            for b in &cases {
                assert_eq!(
                    a.cmp(b),
                    a.to_key_bytes().as_slice().cmp(b.to_key_bytes().as_slice()),
                    "byte order disagrees for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn oid_map_behaves_like_a_map_and_spreads_dense_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let mut m: OidMap<u64> = OidMap::default();
        for rel in [10u16, 11] {
            for key in 0..5000u64 {
                m.insert(Oid::new(rel, key), key * 2 + u64::from(rel));
            }
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&Oid::new(11, 4999)), Some(&(9998 + 11)));
        assert_eq!(m.get(&Oid::new(12, 0)), None);
        // hashbrown buckets by the low bits and tags by the top seven:
        // dense keys must not collapse onto a few values of either.
        let h = BuildHasherDefault::<OidHasher>::default();
        let hashes: Vec<u64> = (0..1024u64).map(|k| h.hash_one(Oid::new(10, k))).collect();
        let distinct = |f: fn(u64) -> u64| {
            let mut v: Vec<u64> = hashes.iter().map(|&x| f(x)).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct(|x| x & 0x3ff) > 512, "low bits spread");
        assert!(distinct(|x| x >> 57) > 100, "top bits spread");
    }

    #[test]
    fn bad_lengths_rejected() {
        assert_eq!(Oid::from_key_bytes(&[0u8; 9]), None);
        assert_eq!(Oid::from_key_bytes(&[0u8; 11]), None);
    }
}
