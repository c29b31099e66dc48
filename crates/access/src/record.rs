//! Tuple ⇄ byte-record codec.
//!
//! The paper stores tuples with integer fields, "blank-compressed"
//! (i.e. variable-length) character fields, and OID-list fields. The codec
//! here is the equivalent: fixed 8-byte integers, length-prefixed strings,
//! 10-byte OIDs and length-prefixed OID lists, laid out in schema order.

use cor_relational::{Oid, Schema, Tuple, Value, ValueType, OID_BYTES};

/// Errors from decoding a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The byte record ended before all columns were decoded.
    Truncated,
    /// The tuple does not conform to the schema it is encoded under.
    SchemaMismatch,
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::SchemaMismatch => write!(f, "tuple does not match schema"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode `tuple` under `schema` into a fresh byte record.
pub fn encode(schema: &Schema, tuple: &Tuple) -> Result<Vec<u8>, CodecError> {
    if !schema.admits(tuple) {
        return Err(CodecError::SchemaMismatch);
    }
    let mut out = Vec::with_capacity(estimated_size(tuple));
    for v in tuple.values() {
        match v {
            Value::Int(i) => put_int(&mut out, *i),
            Value::Str(s) => put_bytes(&mut out, s.as_bytes()),
            Value::Oid(o) => put_oid(&mut out, *o),
            Value::OidList(l) => put_oid_list(&mut out, l),
            Value::Bytes(b) => put_bytes(&mut out, b),
        }
    }
    Ok(out)
}

/// Append an `Int` field as [`encode`] lays it out: 8 bytes, little-endian.
pub fn put_int(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `Str` or `Bytes` field: a `u16` length, then the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u16).to_le_bytes());
    out.extend_from_slice(b);
}

/// Append an `Oid` field: its 10-byte key encoding.
pub fn put_oid(out: &mut Vec<u8>, o: Oid) {
    out.extend_from_slice(&o.to_key_bytes());
}

/// Append an `OidList` field: a `u16` count, then each OID.
pub fn put_oid_list(out: &mut Vec<u8>, l: &[Oid]) {
    out.extend_from_slice(&(l.len() as u16).to_le_bytes());
    for &o in l {
        put_oid(out, o);
    }
}

/// Rough encoded size of a tuple, for pre-sizing buffers.
pub fn estimated_size(tuple: &Tuple) -> usize {
    tuple
        .values()
        .iter()
        .map(|v| match v {
            Value::Int(_) => 8,
            Value::Str(s) => 2 + s.len(),
            Value::Oid(_) => OID_BYTES,
            Value::OidList(l) => 2 + l.len() * OID_BYTES,
            Value::Bytes(b) => 2 + b.len(),
        })
        .sum()
}

/// Decode a byte record produced by [`encode`] under the same schema.
pub fn decode(schema: &Schema, mut bytes: &[u8]) -> Result<Tuple, CodecError> {
    let mut values = Vec::with_capacity(schema.arity());
    for col in schema.columns() {
        let v = match col.ty {
            ValueType::Int => {
                let chunk = take(&mut bytes, 8)?;
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                Value::Int(i64::from_le_bytes(b))
            }
            ValueType::Str => {
                let len = take_u16(&mut bytes)? as usize;
                let chunk = take(&mut bytes, len)?;
                Value::Str(
                    std::str::from_utf8(chunk)
                        .map_err(|_| CodecError::BadUtf8)?
                        .to_string(),
                )
            }
            ValueType::Oid => {
                let chunk = take(&mut bytes, OID_BYTES)?;
                Value::Oid(Oid::from_key_bytes(chunk).ok_or(CodecError::Truncated)?)
            }
            ValueType::OidList => {
                let n = take_u16(&mut bytes)? as usize;
                // A corrupt count must not size the list: reserve no more
                // OIDs than the bytes left can hold.
                let mut oids = Vec::with_capacity(n.min(bytes.len() / OID_BYTES));
                for _ in 0..n {
                    let chunk = take(&mut bytes, OID_BYTES)?;
                    oids.push(Oid::from_key_bytes(chunk).ok_or(CodecError::Truncated)?);
                }
                Value::OidList(oids)
            }
            ValueType::Bytes => {
                let len = take_u16(&mut bytes)? as usize;
                Value::Bytes(take(&mut bytes, len)?.to_vec())
            }
        };
        values.push(v);
    }
    Ok(Tuple::new(values))
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if bytes.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

fn take_u16(bytes: &mut &[u8]) -> Result<u16, CodecError> {
    let chunk = take(bytes, 2)?;
    Ok(u16::from_le_bytes([chunk[0], chunk[1]]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[
            ("oid", ValueType::Oid),
            ("ret1", ValueType::Int),
            ("dummy", ValueType::Str),
            ("children", ValueType::OidList),
        ])
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![
            Value::Oid(Oid::new(1, 42)),
            Value::Int(-7),
            Value::from("padding bytes"),
            Value::OidList(vec![Oid::new(2, 1), Oid::new(2, 9)]),
        ])
    }

    #[test]
    fn roundtrip() {
        let s = schema();
        let t = tuple();
        let bytes = encode(&s, &t).unwrap();
        assert_eq!(bytes.len(), estimated_size(&t));
        assert_eq!(decode(&s, &bytes).unwrap(), t);
    }

    #[test]
    fn empty_string_and_list_roundtrip() {
        let s = schema();
        let t = Tuple::new(vec![
            Value::Oid(Oid::new(0, 0)),
            Value::Int(0),
            Value::from(""),
            Value::OidList(vec![]),
        ]);
        let bytes = encode(&s, &t).unwrap();
        assert_eq!(decode(&s, &bytes).unwrap(), t);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let s = schema();
        let t = Tuple::new(vec![Value::Int(1)]);
        assert_eq!(encode(&s, &t), Err(CodecError::SchemaMismatch));
    }

    #[test]
    fn truncated_record_rejected() {
        let s = schema();
        let bytes = encode(&s, &tuple()).unwrap();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert_eq!(
                decode(&s, &bytes[..cut]),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bytes_field_roundtrip() {
        let s = Schema::new(&[("payload", ValueType::Bytes), ("n", ValueType::Int)]);
        let t = Tuple::new(vec![Value::Bytes(vec![0xFF, 0x00, 0x7F]), Value::Int(9)]);
        let bytes = encode(&s, &t).unwrap();
        assert_eq!(decode(&s, &bytes).unwrap(), t);
        // Empty payload too.
        let t = Tuple::new(vec![Value::Bytes(vec![]), Value::Int(0)]);
        let bytes = encode(&s, &t).unwrap();
        assert_eq!(decode(&s, &bytes).unwrap(), t);
    }

    #[test]
    fn bad_utf8_rejected() {
        let s = Schema::new(&[("s", ValueType::Str)]);
        // len=2, bytes = invalid UTF-8.
        let bytes = vec![2, 0, 0xFF, 0xFE];
        assert_eq!(decode(&s, &bytes), Err(CodecError::BadUtf8));
    }
}
