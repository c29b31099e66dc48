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
//! payload`. A page record's payload is `pid u32` followed either by a
//! whole page or by [`PageRanges`]: `(offset u16, len u16, bytes[len])`
//! runs, sorted, non-overlapping, each non-empty and inside the page.
//! The writer takes the runs where a page differs from a base page and
//! merges two runs whose unchanged gap is shorter than a run's 4-byte
//! header ([`RANGE_HEADER`]), since the gap then costs less than a
//! second header. Four record kinds exist:
//!
//! * **PageImage** (kind 1) — a whole 2 KB after-image. Kept as the
//!   fallback for a page whose sparse image would be no smaller.
//! * **SparseImage** (kind 4) — an after-image as the ranges where the
//!   page differs from a zero page; a freshly allocated zero page is a
//!   17-byte record. The writer logs an image (whichever of the two
//!   forms is smaller) for the *first* modification of a page after a
//!   checkpoint (PostgreSQL-style full-page writes) and for freshly
//!   allocated pages. Redo applies images **unconditionally**, onto a
//!   zeroed buffer for a sparse one: a torn page's LSN word is
//!   untrustworthy, so image records — not LSN comparisons — are what
//!   make torn pages recoverable.
//! * **PageDelta** (kind 2) — one or more changed ranges of a page,
//!   against its pre-image. Written for subsequent modifications until
//!   the next checkpoint; a one-range delta has the layout the log has
//!   always had. Redo applies deltas gated on the page LSN
//!   (`page_lsn >= rec.lsn` ⇒ skip), which makes replay idempotent.
//! * **Checkpoint** (kind 3) — the redo horizon plus the dirty-page table
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
pub(crate) const KIND_SPARSE_IMAGE: u8 = 4;

/// Bytes before each run of a [`PageRanges`]: offset (2) + len (2).
pub const RANGE_HEADER: usize = 4;

/// A page's changed byte runs, held in their on-log form
/// `(offset u16, len u16, bytes[len])*`: sorted, non-overlapping, each
/// non-empty and inside the page. Holding the encoded bytes keeps a
/// decode's allocation equal to its payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageRanges {
    wire: Vec<u8>,
}

impl PageRanges {
    /// The runs `(offset, bytes)`, or `None` when they are unsorted,
    /// overlap, are empty or leave the page.
    pub fn from_runs<'a>(runs: impl IntoIterator<Item = (usize, &'a [u8])>) -> Option<Self> {
        let mut wire = Vec::new();
        for (offset, bytes) in runs {
            if offset + bytes.len() > PAGE_SIZE {
                return None;
            }
            push_run(&mut wire, offset, bytes);
        }
        valid(&wire).then_some(PageRanges { wire })
    }

    /// The runs in page order, as `(offset, bytes)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            (at < self.wire.len()).then(|| {
                let offset = read_u16(&self.wire, at) as usize;
                let n = read_u16(&self.wire, at + 2) as usize;
                at += RANGE_HEADER + n;
                (offset, &self.wire[at - n..at])
            })
        })
    }

    /// Bytes the runs take on the log, headers included.
    pub fn encoded_len(&self) -> usize {
        self.wire.len()
    }

    /// Append a frame of `kind` whose payload is `pid` and these runs.
    fn frame(&self, out: &mut Vec<u8>, lsn: Lsn, kind: u8, pid: PageId) {
        frame(out, lsn, kind, |out| {
            out.extend_from_slice(&pid.to_le_bytes());
            out.extend_from_slice(&self.wire);
        });
    }

    /// Write every run's bytes into `page` at its offset.
    pub fn apply(&self, page: &mut PageBuf) {
        for (offset, bytes) in self.iter() {
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
        }
    }
}

/// Bitmap words in a page: one bit per byte.
const WORDS: usize = PAGE_SIZE / 64;

/// The runs where a page differs from a base page, as [`ranges`] finds
/// them: bit `i % 64` of word `i / 64` is set when byte `i` is in a run.
/// A run is a maximal stretch of set bits.
pub(crate) struct Runs {
    bits: [u64; WORDS],
}

/// The runs where `page` differs from `base`, two runs merged when fewer
/// than [`RANGE_HEADER`] unchanged bytes part them: the gap then costs
/// less on the log than a second header. The bytes are compared 64 at a
/// time into one bitmap word (a block whose eight words XOR to zero is
/// skipped), then every gap shorter than a header is filled by word
/// shifts, so only the runs themselves cost a step each when they are
/// read out.
pub(crate) fn ranges(base: &PageBuf, page: &PageBuf) -> Runs {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mut changed = [0u64; WORDS + 1];
    for (bits, (a, b)) in changed
        .iter_mut()
        .zip(base.chunks_exact(64).zip(page.chunks_exact(64)))
    {
        let differ = a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .fold(0, |acc, (x, y)| acc | (word(x) ^ word(y)));
        if differ == 0 {
            continue;
        }
        // The compares vectorise; each eight 0/1 flags are then gathered
        // into a byte by one multiply, which lands flag k on bit 56 + k
        // with no two partial products overlapping.
        let mut ne = [0u8; 64];
        for ((n, x), y) in ne.iter_mut().zip(a).zip(b) {
            *n = u8::from(x != y);
        }
        for (k, flags) in ne.chunks_exact(8).enumerate() {
            let flags = word(flags);
            *bits |= (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
    }
    // Fill the short gaps: smear every set bit over the 3 bits above it
    // (into the spare word past the page too), then keep a bit only where
    // it and the 3 bits above it are all set. A gap of 3 or fewer bytes
    // between two set bits is covered by the smear on both sides of each
    // of its bits; a wider gap, and the page edges, are not.
    let mut smeared = [0u64; WORDS + 1];
    let mut below = 0;
    for (s, &x) in smeared.iter_mut().zip(&changed) {
        *s = x | (x << 1 | below >> 63) | (x << 2 | below >> 62) | (x << 3 | below >> 61);
        below = x;
    }
    let mut bits = [0u64; WORDS];
    for (w, b) in bits.iter_mut().enumerate() {
        let (x, above) = (smeared[w], smeared[w + 1]);
        *b = x & (x >> 1 | above << 63) & (x >> 2 | above << 62) & (x >> 3 | above << 61);
    }
    Runs { bits }
}

impl Runs {
    /// The runs `(start, end)` in page order. A run starts at a set bit
    /// after a clear one and ends at a clear bit after a set one, so the
    /// bit changes, taken in order, alternate start, end, start, end.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (mut w, mut changes, mut below) = (0, 0u64, 0u64);
        let mut next_change = move || {
            while changes == 0 {
                if w > WORDS {
                    return None;
                }
                // Past the page every bit is clear, so a run reaching the
                // last byte ends at PAGE_SIZE.
                let x = self.bits.get(w).copied().unwrap_or(0);
                changes = x ^ (x << 1 | below >> 63);
                below = x;
                w += 1;
            }
            let at = 64 * (w - 1) + changes.trailing_zeros() as usize;
            changes &= changes - 1;
            Some(at)
        };
        std::iter::from_fn(move || Some((next_change()?, next_change()?)))
    }

    /// From the first run's start to the last run's end; `None` when the
    /// pages are equal.
    pub(crate) fn span(&self) -> Option<(usize, usize)> {
        let first = self.bits.iter().position(|&x| x != 0)?;
        let last = self.bits.iter().rposition(|&x| x != 0)?;
        Some((
            64 * first + self.bits[first].trailing_zeros() as usize,
            64 * last + 64 - self.bits[last].leading_zeros() as usize,
        ))
    }

    /// Bytes the runs take on the log: their bytes plus a header each.
    pub(crate) fn encoded_len(&self) -> usize {
        let mut below = 0;
        let mut len = 0;
        for &x in &self.bits {
            let starts = x & !(x << 1 | below >> 63);
            len += (x.count_ones() + RANGE_HEADER as u32 * starts.count_ones()) as usize;
            below = x;
        }
        len
    }
}

fn push_run(wire: &mut Vec<u8>, offset: usize, bytes: &[u8]) {
    wire.extend_from_slice(&(offset as u16).to_le_bytes());
    wire.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    wire.extend_from_slice(bytes);
}

/// Whether `wire` is a whole number of sorted, non-overlapping,
/// non-empty runs inside the page.
fn valid(wire: &[u8]) -> bool {
    let (mut at, mut end) = (0, 0);
    while at < wire.len() {
        if wire.len() - at < RANGE_HEADER {
            return false;
        }
        let offset = read_u16(wire, at) as usize;
        let n = read_u16(wire, at + 2) as usize;
        if n == 0 || offset < end || offset + n > PAGE_SIZE || wire.len() - at - RANGE_HEADER < n {
            return false;
        }
        end = offset + n;
        at += RANGE_HEADER + n;
    }
    true
}

/// A decoded log record body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    /// Whole after-image of a page (kind 1); applied unconditionally at
    /// redo.
    PageImage {
        /// The page the image belongs to.
        pid: PageId,
        /// The full page contents after the logged mutation.
        image: Box<PageBuf>,
    },
    /// After-image as the runs where the page differs from a zero page
    /// (kind 4); applied unconditionally at redo, onto zeros.
    SparseImage {
        /// The page the image belongs to.
        pid: PageId,
        /// The page's nonzero runs (empty for a zero page).
        ranges: PageRanges,
    },
    /// The changed runs of a page against its pre-image (kind 2, at
    /// least one run); applied iff `page_lsn < lsn`.
    PageDelta {
        /// The page the delta belongs to.
        pid: PageId,
        /// The changed runs (after-image bytes).
        ranges: PageRanges,
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
            RecordBody::SparseImage { pid, ranges } => {
                ranges.frame(out, self.lsn, KIND_SPARSE_IMAGE, *pid)
            }
            RecordBody::PageDelta { pid, ranges } => ranges.frame(out, self.lsn, KIND_DELTA, *pid),
            RecordBody::Checkpoint {
                redo_lsn,
                dirty_pages,
            } => {
                frame(out, self.lsn, KIND_CHECKPOINT, |out| {
                    out.extend_from_slice(&redo_lsn.to_le_bytes());
                    out.extend_from_slice(&(dirty_pages.len() as u32).to_le_bytes());
                    for (pid, rec_lsn) in dirty_pages {
                        out.extend_from_slice(&pid.to_le_bytes());
                        out.extend_from_slice(&rec_lsn.to_le_bytes());
                    }
                });
            }
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER
            + match &self.body {
                RecordBody::PageImage { .. } => 4 + PAGE_SIZE,
                RecordBody::SparseImage { ranges, .. } | RecordBody::PageDelta { ranges, .. } => {
                    4 + ranges.encoded_len()
                }
                RecordBody::Checkpoint { dirty_pages, .. } => 8 + 8 * dirty_pages.len(),
            }
    }
}

/// Append one record to `out` in a single pass: the header with a zero
/// CRC and length, then the payload `payload` writes, then the length
/// and the CRC over `len | lsn | kind | payload` stamped in place.
fn frame(out: &mut Vec<u8>, lsn: Lsn, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&lsn.to_le_bytes());
    out.push(kind);
    payload(out);
    let len = (out.len() - start - RECORD_HEADER) as u32;
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Append a [`RecordBody::PageImage`] frame for a borrowed page.
pub(crate) fn frame_image(out: &mut Vec<u8>, lsn: Lsn, pid: PageId, image: &PageBuf) {
    frame(out, lsn, KIND_IMAGE, |out| {
        out.extend_from_slice(&pid.to_le_bytes());
        out.extend_from_slice(image);
    });
}

/// Append a [`RecordBody::SparseImage`] (`kind` 4) or
/// [`RecordBody::PageDelta`] (`kind` 2) frame of `page`'s bytes in
/// `runs`, straight from the borrowed page.
pub(crate) fn frame_ranges(
    out: &mut Vec<u8>,
    lsn: Lsn,
    kind: u8,
    pid: PageId,
    page: &PageBuf,
    runs: &Runs,
) {
    frame(out, lsn, kind, |out| {
        out.extend_from_slice(&pid.to_le_bytes());
        // Sized once, with room for the fixed-size copy below to run past
        // the last run; cut back to the runs' length at the end.
        let mut at = out.len();
        out.resize(at + runs.encoded_len() + COPY_BLOCK, 0);
        for (s, e) in runs.iter() {
            out[at..at + 2].copy_from_slice(&(s as u16).to_le_bytes());
            out[at + 2..at + 4].copy_from_slice(&((e - s) as u16).to_le_bytes());
            at += RANGE_HEADER;
            // Most runs are short: one fixed-size copy, whose overrun the
            // next run's header overwrites, costs less than a copy sized
            // at run time.
            if e - s <= COPY_BLOCK && s + COPY_BLOCK <= PAGE_SIZE {
                let to: &mut [u8; COPY_BLOCK] =
                    (&mut out[at..at + COPY_BLOCK]).try_into().expect("block");
                *to = page[s..s + COPY_BLOCK].try_into().expect("block");
            } else {
                out[at..at + e - s].copy_from_slice(&page[s..e]);
            }
            at += e - s;
        }
        out.truncate(at);
    });
}

/// Bytes [`frame_ranges`] copies at once for a run no longer than it.
const COPY_BLOCK: usize = 32;

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
/// CRC, unknown kind, or runs that are unsorted, overlapping, empty or
/// outside the page all stop decoding — after a crash the log is
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
        let runs = || {
            let wire = &payload[4..];
            valid(wire).then(|| PageRanges {
                wire: wire.to_vec(),
            })
        };
        let body = match kind {
            KIND_IMAGE if len == 4 + PAGE_SIZE => {
                let pid = read_u32(payload, 0);
                let mut image = Box::new([0u8; PAGE_SIZE]);
                image.copy_from_slice(&payload[4..]);
                RecordBody::PageImage { pid, image }
            }
            KIND_SPARSE_IMAGE if len >= 4 => match runs() {
                Some(ranges) => RecordBody::SparseImage {
                    pid: read_u32(payload, 0),
                    ranges,
                },
                None => break,
            },
            KIND_DELTA if len > 4 => match runs() {
                Some(ranges) => RecordBody::PageDelta {
                    pid: read_u32(payload, 0),
                    ranges,
                },
                None => break,
            },
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
    use proptest::prelude::*;

    fn frame_parts(out: &mut Vec<u8>, lsn: Lsn, kind: u8, parts: &[&[u8]]) {
        frame(out, lsn, kind, |out| {
            parts.iter().for_each(|p| out.extend_from_slice(p))
        });
    }

    fn runs(runs: &[(usize, &[u8])]) -> PageRanges {
        PageRanges::from_runs(runs.iter().copied()).expect("valid runs")
    }

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
                    ranges: runs(&[(100, &[1, 2, 3, 4, 5]), (1900, &[6])]),
                },
            },
            Record {
                lsn: 3,
                body: RecordBody::SparseImage {
                    pid: 8,
                    ranges: runs(&[(12, &[9; 4]), (2000, &[7; 48])]),
                },
            },
            Record {
                lsn: 4,
                body: RecordBody::SparseImage {
                    pid: 9,
                    ranges: PageRanges::default(),
                },
            },
            Record {
                lsn: 5,
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
        assert_eq!(out.records, records[..4].to_vec());
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

    /// A one-run delta keeps the layout the log has always had:
    /// `pid | offset | len | bytes`.
    #[test]
    fn a_one_run_delta_is_the_single_range_layout() {
        let r = Record {
            lsn: 5,
            body: RecordBody::PageDelta {
                pid: 3,
                ranges: runs(&[(200, &[9; 4])]),
            },
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let payload = &buf[RECORD_HEADER..];
        assert_eq!(buf[12], KIND_DELTA);
        assert_eq!(payload, &[3, 0, 0, 0, 200, 0, 4, 0, 9, 9, 9, 9]);
        assert_eq!(buf.len(), r.encoded_len());
    }

    #[test]
    fn a_zero_page_is_a_17_byte_sparse_image() {
        let zero = [0; PAGE_SIZE];
        let runs = ranges(&zero, &zero);
        assert_eq!((runs.span(), runs.encoded_len()), (None, 0));
        let mut buf = Vec::new();
        frame_ranges(&mut buf, 1, KIND_SPARSE_IMAGE, 4, &zero, &runs);
        assert_eq!(buf.len(), 17);
        let out = decode_stream(&buf);
        let body = RecordBody::SparseImage {
            pid: 4,
            ranges: PageRanges::default(),
        };
        assert_eq!(out.records, vec![Record { lsn: 1, body }]);
    }

    /// Runs cut short, and a delta with no run, end decoding; runs that
    /// touch end to end do not. (Unsorted, overlapping, empty and
    /// out-of-page runs are `decode_robustness.rs`'s.)
    #[test]
    fn truncated_runs_end_decoding() {
        let run = |offset: u16, len: u16| {
            let mut w = offset.to_le_bytes().to_vec();
            w.extend_from_slice(&len.to_le_bytes());
            w.resize(RANGE_HEADER + len as usize, 0xAB);
            w
        };
        let decoded = |kind: u8, wire: &[u8]| {
            let mut buf = Vec::new();
            frame_parts(&mut buf, 7, kind, &[&1u32.to_le_bytes(), wire]);
            decode_stream(&buf).records.len()
        };
        for kind in [KIND_DELTA, KIND_SPARSE_IMAGE] {
            assert_eq!(decoded(kind, &[run(10, 4), vec![1, 0]].concat()), 0);
            assert_eq!(decoded(kind, &run(10, 4)[..6]), 0);
            assert_eq!(decoded(kind, &[run(10, 4), run(14, 4)].concat()), 1);
        }
        // A delta needs a run; a sparse image of a zero page has none.
        assert_eq!(decoded(KIND_DELTA, &[]), 0);
        assert_eq!(decoded(KIND_SPARSE_IMAGE, &[]), 1);
    }

    #[test]
    fn delta_range_must_stay_inside_the_page() {
        // Four bytes at PAGE_SIZE - 2 would run past the page end.
        let mut wire = ((PAGE_SIZE - 2) as u16).to_le_bytes().to_vec();
        wire.extend_from_slice(&[4, 0, 1, 2, 3, 4]);
        let mut buf = Vec::new();
        frame_parts(&mut buf, 5, KIND_DELTA, &[&1u32.to_le_bytes(), &wire]);
        let out = decode_stream(&buf);
        assert!(out.records.is_empty() && out.torn_tail);
        assert_eq!(
            PageRanges::from_runs([(PAGE_SIZE - 2, &[1u8, 2, 3, 4][..])]),
            None
        );
    }

    /// The reference model for [`ranges`]: one byte at a time,
    /// a run merged into the one before it across a gap under a header.
    fn ranges_bytewise(base: &PageBuf, page: &PageBuf) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for i in (0..PAGE_SIZE).filter(|&i| base[i] != page[i]) {
            match out.last_mut() {
                Some((_, end)) if i - *end < RANGE_HEADER => *end = i + 1,
                _ => out.push((i, i + 1)),
            }
        }
        out
    }

    proptest! {
        /// The bitmap `ranges` equals the byte-wise model on random page
        /// pairs: identical pages, a few edits of any length at any offset
        /// (an edit may rewrite a byte to its old value), single bytes
        /// flipped densely enough that gaps of every width up to a few
        /// headers fall on and across bitmap-word edges, and pages that
        /// differ everywhere; the runs rebuild the page over its base.
        #[test]
        fn ranges_matches_the_byte_loop(
            fill in any::<u8>(),
            edits in proptest::collection::vec((0..PAGE_SIZE, 1usize..24, any::<u8>()), 0..6),
            flips in proptest::collection::vec(0..PAGE_SIZE, 0..400),
            whole in 0u8..16,
        ) {
            let base: PageBuf = std::array::from_fn(|i| (i as u8).wrapping_mul(fill | 1));
            let mut page = if whole == 0 { [fill; PAGE_SIZE] } else { base };
            for &(at, len, val) in &edits {
                page[at..(at + len).min(PAGE_SIZE)].fill(val);
            }
            for &at in &flips {
                page[at] ^= 0x5A;
            }
            let found = ranges(&base, &page);
            let got: Vec<(usize, usize)> = found.iter().collect();
            let want = ranges_bytewise(&base, &page);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(found.span(), want.first().zip(want.last()).map(|(f, l)| (f.0, l.1)));
            let runs = PageRanges::from_runs(got.iter().map(|&(s, e)| (s, &page[s..e])));
            let runs = runs.expect("sorted, disjoint, non-empty runs");
            prop_assert_eq!(runs.encoded_len(), found.encoded_len());
            let mut rebuilt = base;
            runs.apply(&mut rebuilt);
            prop_assert_eq!(rebuilt, page);
        }
    }
}
