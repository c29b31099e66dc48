//! Log record format.
//!
//! Every record is framed as
//!
//! ```text
//! +-----------+----------+----------+---------+------------------+
//! | crc32 u32 | len  u32 | lsn  u32 | kind u8 | payload[len] ... |
//! +-----------+----------+----------+---------+------------------+
//! ```
//!
//! (all little-endian), with the CRC covering `len | lsn | kind |
//! payload`. Three record kinds exist:
//!
//! * **PageImage** — a full 2 KB after-image of one page. Written for
//!   the *first* modification of a page after a checkpoint
//!   (PostgreSQL-style full-page writes), and for freshly allocated
//!   pages. Redo applies images **unconditionally**: a torn page's LSN
//!   word is untrustworthy, so image records — not LSN comparisons — are
//!   what make torn pages recoverable.
//! * **PageDelta** — one contiguous changed byte range of a page.
//!   Written for subsequent modifications until the next checkpoint. Redo
//!   applies deltas gated on the page LSN (`page_lsn >= rec.lsn` ⇒
//!   skip), which makes replay idempotent.
//! * **Checkpoint** — the redo horizon plus the dirty-page table
//!   `(page_id, recLSN)*` at checkpoint time. The horizon (`redo_lsn`)
//!   is computed by the writer as `min(begin LSN, min recLSN)`, where
//!   the *begin LSN* was captured **before** the dirty-page table — so a
//!   page write raced between the capture and the checkpoint append is
//!   still covered by redo even though it is missing from the table.
//!   Recovery starts redo from the `redo_lsn` of the *last* complete
//!   checkpoint. The stored table is diagnostic (the horizon is explicit)
//!   and is capped at [`MAX_CHECKPOINT_DPT`] entries so every checkpoint
//!   record stays decodable.

use crate::crc::crc32;
use cor_pagestore::wal::Lsn;
use cor_pagestore::{PageBuf, PageId, PAGE_SIZE};

/// Framing bytes before the payload: crc (4) + len (4) + lsn (4) + kind (1).
pub const RECORD_HEADER: usize = 13;

/// Upper bound on a sane payload length; anything larger is treated as
/// tail corruption rather than attempted as an allocation.
const MAX_PAYLOAD: usize = PAGE_SIZE + 64 + 16 * 65536;

/// Most dirty-page-table entries a checkpoint record stores. The redo
/// horizon travels in the record's explicit `redo_lsn` — always computed
/// over the *full* table — so truncating the stored copy loses only
/// diagnostics, never correctness. The cap keeps the largest checkpoint
/// payload (8 + 8 × 65 536 bytes) comfortably under `MAX_PAYLOAD`, so
/// a pool with millions of frames can still emit decodable checkpoints.
pub const MAX_CHECKPOINT_DPT: usize = 65_536;

pub(crate) const KIND_IMAGE: u8 = 1;
pub(crate) const KIND_DELTA: u8 = 2;
pub(crate) const KIND_CHECKPOINT: u8 = 3;

/// A decoded log record body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    /// Full after-image of a page; applied unconditionally at redo.
    PageImage {
        /// The page the image belongs to.
        pid: PageId,
        /// The full page contents after the logged mutation.
        image: Box<PageBuf>,
    },
    /// One contiguous changed byte range; applied iff `page_lsn < lsn`.
    PageDelta {
        /// The page the delta belongs to.
        pid: PageId,
        /// Byte offset of the changed range within the page.
        offset: u16,
        /// The changed bytes (after-image of the range).
        bytes: Vec<u8>,
    },
    /// Redo horizon + dirty-page table at checkpoint time.
    Checkpoint {
        /// Where redo must start for this checkpoint to be complete:
        /// `min(begin LSN, min recLSN over the full dirty-page table)`,
        /// with the begin LSN captured before the table (see module
        /// docs). Always `<=` the record's own LSN.
        redo_lsn: Lsn,
        /// `(page_id, recLSN)` for pages dirty in the pool when the
        /// checkpoint was taken; diagnostic, truncated to
        /// [`MAX_CHECKPOINT_DPT`] entries by the writer.
        dirty_pages: Vec<(PageId, Lsn)>,
    },
}

/// A decoded log record: LSN plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The decoded body.
    pub body: RecordBody,
}

impl Record {
    /// Serialize the record into `out` with framing and CRC.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match &self.body {
            RecordBody::PageImage { pid, image } => frame_image(out, self.lsn, *pid, image),
            RecordBody::PageDelta { pid, offset, bytes } => {
                frame_delta(out, self.lsn, *pid, *offset, bytes)
            }
            RecordBody::Checkpoint {
                redo_lsn,
                dirty_pages,
            } => {
                let mut table = Vec::with_capacity(8 * dirty_pages.len());
                for (pid, rec_lsn) in dirty_pages {
                    table.extend_from_slice(&pid.to_le_bytes());
                    table.extend_from_slice(&rec_lsn.to_le_bytes());
                }
                frame(
                    out,
                    self.lsn,
                    KIND_CHECKPOINT,
                    &[
                        &redo_lsn.to_le_bytes(),
                        &(dirty_pages.len() as u32).to_le_bytes(),
                        &table,
                    ],
                );
            }
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER
            + match &self.body {
                RecordBody::PageImage { .. } => 4 + PAGE_SIZE,
                RecordBody::PageDelta { bytes, .. } => 8 + bytes.len(),
                RecordBody::Checkpoint { dirty_pages, .. } => 8 + 8 * dirty_pages.len(),
            }
    }
}

/// Append one record to `out` in a single pass: the header with a zero
/// CRC, then `parts` in order as the payload, then the CRC over
/// `len | lsn | kind | payload` stamped in place.
fn frame(out: &mut Vec<u8>, lsn: Lsn, kind: u8, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let start = out.len();
    out.reserve(RECORD_HEADER + len);
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.push(kind);
    for part in parts {
        out.extend_from_slice(part);
    }
    let crc = crc32(&out[start + 4..]);
    out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Append a [`RecordBody::PageImage`] frame for a borrowed page.
pub(crate) fn frame_image(out: &mut Vec<u8>, lsn: Lsn, pid: PageId, image: &PageBuf) {
    frame(out, lsn, KIND_IMAGE, &[&pid.to_le_bytes(), image]);
}

/// Append a [`RecordBody::PageDelta`] frame for a borrowed byte range.
pub(crate) fn frame_delta(out: &mut Vec<u8>, lsn: Lsn, pid: PageId, offset: u16, bytes: &[u8]) {
    frame(
        out,
        lsn,
        KIND_DELTA,
        &[
            &pid.to_le_bytes(),
            &offset.to_le_bytes(),
            &(bytes.len() as u16).to_le_bytes(),
            bytes,
        ],
    );
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

/// Outcome of decoding one contiguous byte stream of records.
#[derive(Debug)]
pub struct DecodedStream {
    /// Records decoded, in log order.
    pub records: Vec<Record>,
    /// Bytes consumed by complete, CRC-valid records.
    pub consumed: usize,
    /// `true` when decoding stopped before the end of the input — a
    /// torn or corrupt tail follows `consumed`.
    pub torn_tail: bool,
}

/// Decode records from `bytes` until the stream ends or a torn/corrupt
/// record is hit. A short header, short payload, oversized length, bad
/// CRC, or unknown kind all stop decoding — after a crash the log is
/// expected to end mid-record, and everything from that point on is
/// discarded by recovery.
pub fn decode_stream(bytes: &[u8]) -> DecodedStream {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= RECORD_HEADER {
        let crc = read_u32(bytes, at);
        let len = read_u32(bytes, at + 4) as usize;
        let lsn = read_u32(bytes, at + 8);
        let kind = bytes[at + 12];
        if len > MAX_PAYLOAD || bytes.len() - at - RECORD_HEADER < len {
            break;
        }
        let covered = &bytes[at + 4..at + RECORD_HEADER + len];
        if crc32(covered) != crc {
            break;
        }
        let payload = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
        let body = match kind {
            KIND_IMAGE if len == 4 + PAGE_SIZE => {
                let pid = read_u32(payload, 0);
                let mut image = Box::new([0u8; PAGE_SIZE]);
                image.copy_from_slice(&payload[4..]);
                RecordBody::PageImage { pid, image }
            }
            KIND_DELTA if len >= 8 => {
                let pid = read_u32(payload, 0);
                let offset = read_u16(payload, 4);
                let n = read_u16(payload, 6) as usize;
                if len != 8 + n || offset as usize + n > PAGE_SIZE {
                    break;
                }
                RecordBody::PageDelta {
                    pid,
                    offset,
                    bytes: payload[8..].to_vec(),
                }
            }
            KIND_CHECKPOINT if len >= 8 => {
                let redo_lsn = read_u32(payload, 0);
                let n = read_u32(payload, 4) as usize;
                if n > MAX_CHECKPOINT_DPT || len != 8 + 8 * n {
                    break;
                }
                let dirty_pages = (0..n)
                    .map(|i| {
                        (
                            read_u32(payload, 8 + 8 * i),
                            read_u32(payload, 8 + 8 * i + 4),
                        )
                    })
                    .collect();
                RecordBody::Checkpoint {
                    redo_lsn,
                    dirty_pages,
                }
            }
            _ => break,
        };
        records.push(Record { lsn, body });
        at += RECORD_HEADER + len;
    }
    DecodedStream {
        records,
        consumed: at,
        torn_tail: at != bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        let mut image = Box::new([0u8; PAGE_SIZE]);
        image[0] = 0xAA;
        image[PAGE_SIZE - 1] = 0xBB;
        vec![
            Record {
                lsn: 1,
                body: RecordBody::PageImage { pid: 7, image },
            },
            Record {
                lsn: 2,
                body: RecordBody::PageDelta {
                    pid: 7,
                    offset: 100,
                    bytes: vec![1, 2, 3, 4, 5],
                },
            },
            Record {
                lsn: 3,
                body: RecordBody::Checkpoint {
                    redo_lsn: 1,
                    dirty_pages: vec![(7, 2), (9, 1)],
                },
            },
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        let records = sample_records();
        let mut buf = Vec::new();
        for r in &records {
            let before = buf.len();
            r.encode(&mut buf);
            assert_eq!(buf.len() - before, r.encoded_len());
        }
        let out = decode_stream(&buf);
        assert!(!out.torn_tail);
        assert_eq!(out.consumed, buf.len());
        assert_eq!(out.records, records);
    }

    #[test]
    fn empty_and_sub_header_streams_decode_to_nothing() {
        let out = decode_stream(&[]);
        assert!(out.records.is_empty() && !out.torn_tail);
        let out = decode_stream(&[1, 2, 3]);
        assert!(out.records.is_empty() && out.torn_tail);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let records = sample_records();
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        // Chop mid-way through the last record.
        let chopped = buf.len() - 9;
        let out = decode_stream(&buf[..chopped]);
        assert!(out.torn_tail);
        assert_eq!(out.records, records[..2].to_vec());
    }

    #[test]
    fn corrupt_record_stops_decoding() {
        let records = sample_records();
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        // Flip a payload byte of the second record: record 1 survives,
        // decoding stops at the corruption.
        let second_start = records[0].encoded_len();
        buf[second_start + RECORD_HEADER + 2] ^= 0xFF;
        let out = decode_stream(&buf);
        assert!(out.torn_tail);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0], records[0]);
        assert_eq!(out.consumed, second_start);
    }

    #[test]
    fn insane_length_field_is_rejected() {
        let mut buf = Vec::new();
        sample_records()[1].encode(&mut buf);
        // Overwrite the length with something absurd; CRC would also fail,
        // but the length guard must reject it before any huge allocation.
        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let out = decode_stream(&buf);
        assert!(out.records.is_empty() && out.torn_tail);
    }

    #[test]
    fn checkpoint_dpt_over_the_cap_is_rejected_at_decode() {
        // The writer never emits more than MAX_CHECKPOINT_DPT entries;
        // a stream claiming more is treated as corruption, not as a
        // request for an unbounded allocation.
        let r = Record {
            lsn: 9,
            body: RecordBody::Checkpoint {
                redo_lsn: 1,
                dirty_pages: (0..(MAX_CHECKPOINT_DPT as u32 + 1))
                    .map(|i| (i, i))
                    .collect(),
            },
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let out = decode_stream(&buf);
        assert!(out.records.is_empty() && out.torn_tail);
        // At exactly the cap the record round-trips.
        let r = Record {
            lsn: 9,
            body: RecordBody::Checkpoint {
                redo_lsn: 1,
                dirty_pages: (0..MAX_CHECKPOINT_DPT as u32).map(|i| (i, i)).collect(),
            },
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let out = decode_stream(&buf);
        assert!(!out.torn_tail);
        assert_eq!(out.records, vec![r]);
    }

    #[test]
    fn delta_range_must_stay_inside_the_page() {
        let r = Record {
            lsn: 5,
            body: RecordBody::PageDelta {
                pid: 1,
                offset: (PAGE_SIZE - 2) as u16,
                bytes: vec![0; 8], // would run past the page end
            },
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let out = decode_stream(&buf);
        assert!(out.records.is_empty() && out.torn_tail);
    }
}
