//! `decode_stream` is the WAL-frame decoder: recovery runs it over
//! whatever bytes a crash left in a segment. Those bytes are outside
//! input, so the decoder must never panic, must never let a stored length
//! or count size an allocation the input cannot back, and must accept
//! only canonical frames: every record it returns re-encodes to exactly
//! the bytes it consumed.
//!
//! Inputs are arbitrary bytes (bare, or framed under a valid header and
//! CRC so the body checks are reached) and valid streams mutated by byte
//! flips and by rewriting a record's `len` or `lsn` word or a delta's
//! `offset` or `count` field, with the CRC re-stamped.
//!
//! This binary installs a `#[global_allocator]` that counts the bytes
//! each thread asks for, which is why it is a test binary of its own.

use cor_pagestore::PAGE_SIZE;
use cor_wal::crc::crc32;
use cor_wal::record::RECORD_HEADER;
use cor_wal::{decode_stream, Record, RecordBody};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the heap bytes the current thread has asked for (a `realloc`
/// counts its new size), so a test can bound what one decode allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(size)));
}

// SAFETY: every call is forwarded to `System` unchanged. The thread-local
// has a const initializer and no destructor, so counting never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap bytes one decode may ask for, in total, per byte of input. A
/// record costs at least 21 bytes of input and about 40 bytes of `Vec`
/// slot (doubled by growth), plus at most its own payload size on the
/// heap; a length or count the input cannot back asks for far more.
const ALLOC_PER_INPUT_BYTE: usize = 16;

/// Decode `bytes` as outside input and check the three rules.
fn decode_as_outside_input(bytes: &[u8]) {
    ALLOCATED.with(|a| a.set(0));
    let out = decode_stream(bytes);
    let allocated = ALLOCATED.with(Cell::get);
    assert!(
        allocated <= ALLOC_PER_INPUT_BYTE * bytes.len().max(64),
        "a {}-byte stream allocated {allocated} bytes",
        bytes.len()
    );
    assert!(out.consumed <= bytes.len());
    assert_eq!(out.torn_tail, out.consumed != bytes.len());
    let mut again = Vec::with_capacity(out.consumed);
    for rec in &out.records {
        rec.encode(&mut again);
    }
    assert!(
        again == bytes[..out.consumed],
        "the {} records decoded from {} bytes do not re-encode to them",
        out.records.len(),
        out.consumed
    );
}

/// Re-stamp the CRC of the frame at `at` over whatever its (possibly
/// rewritten) `len` word covers, clipped to the stream.
fn restamp(stream: &mut [u8], at: usize) {
    if stream.len() < at + RECORD_HEADER {
        return;
    }
    let len = u32::from_le_bytes(stream[at + 4..at + 8].try_into().unwrap()) as usize;
    let end = (at + RECORD_HEADER).saturating_add(len).min(stream.len());
    let crc = crc32(&stream[at + 4..end]);
    stream[at..at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// A random valid record: an image, a delta inside the page, or a
/// checkpoint with a short dirty-page table.
fn random_record(rng: &mut StdRng) -> Record {
    let lsn = rng.random();
    let pid = rng.random_range(0..64);
    let body = match rng.random_range(0..4) {
        0 => {
            let mut image = Box::new([0u8; PAGE_SIZE]);
            rng.fill_bytes(&mut image[..]);
            RecordBody::PageImage { pid, image }
        }
        1 => RecordBody::Checkpoint {
            redo_lsn: rng.random(),
            dirty_pages: (0..rng.random_range(0..6))
                .map(|_| (rng.random_range(0..64), rng.random()))
                .collect(),
        },
        _ => {
            let n = rng.random_range(0..48);
            let mut bytes = vec![0u8; n];
            rng.fill_bytes(&mut bytes);
            RecordBody::PageDelta {
                pid,
                offset: rng.random_range(0..=PAGE_SIZE - n) as u16,
                bytes,
            }
        }
    };
    Record { lsn, body }
}

/// A valid stream of 1..6 records and the offset of each frame.
fn valid_stream(seed: u64) -> (Vec<u8>, Vec<(usize, Record)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::new();
    let mut frames = Vec::new();
    for _ in 0..rng.random_range(1..6) {
        let rec = random_record(&mut rng);
        frames.push((stream.len(), rec.clone()));
        rec.encode(&mut stream);
    }
    (stream, frames)
}

/// `(offset in the frame, width)` of the header's `len` and `lsn` words
/// and of a delta's `offset` and `count` fields.
const FIELDS: [(usize, usize); 4] = [
    (4, 4),
    (8, 4),
    (RECORD_HEADER + 4, 2),
    (RECORD_HEADER + 6, 2),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary bytes, bare or behind a valid header and CRC (any kind
    /// byte, the payload's true length) so the body checks run.
    #[test]
    fn decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        framed in any::<bool>(),
        kind in 0u8..5,
        lsn in any::<u32>(),
    ) {
        if framed {
            let mut stream = vec![0u8; 4];
            stream.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            stream.extend_from_slice(&lsn.to_le_bytes());
            stream.push(kind);
            stream.extend_from_slice(&bytes);
            restamp(&mut stream, 0);
            decode_as_outside_input(&stream);
        } else {
            decode_as_outside_input(&bytes);
        }
    }

    /// A valid stream with a few bytes flipped, each flipped frame's CRC
    /// re-stamped or not.
    #[test]
    fn decode_survives_byte_flips(
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        recrc in any::<bool>(),
    ) {
        let (mut stream, frames) = valid_stream(seed);
        for &(at, mask) in &flips {
            let at = at % stream.len();
            stream[at] ^= mask;
            if recrc {
                let (start, _) = frames.iter().rev().find(|(start, _)| *start <= at).unwrap();
                restamp(&mut stream, *start);
            }
        }
        decode_as_outside_input(&stream);
    }

    /// A valid stream with one frame's `len` or `lsn` word, or a delta's
    /// `offset` or `count`, rewritten and the CRC re-stamped.
    #[test]
    fn decode_survives_rewritten_fields(
        seed in any::<u64>(),
        pick in any::<usize>(),
        field in 0..FIELDS.len(),
        step in any::<i8>(),
        any_value in any::<u32>(),
        wild in any::<bool>(),
    ) {
        let (mut stream, frames) = valid_stream(seed);
        let (start, rec) = &frames[pick % frames.len()];
        let (skip, width) = FIELDS[field];
        // The last two fields exist only in a delta's payload.
        if field < 2 || matches!(rec.body, RecordBody::PageDelta { .. }) {
            let word = &mut stream[start + skip..start + skip + width];
            let mut le = [0u8; 4];
            le[..width].copy_from_slice(word);
            let old = u32::from_le_bytes(le);
            // A small step either way from the old value, or any value.
            let new = if wild { any_value } else { old.wrapping_add(step as i32 as u32) };
            word.copy_from_slice(&new.to_le_bytes()[..width]);
            restamp(&mut stream, *start);
        }
        decode_as_outside_input(&stream);
    }
}

/// The unmutated streams decode whole: the generators above start from
/// frames the decoder accepts.
#[test]
fn valid_streams_decode_whole() {
    for seed in 0..64 {
        let (stream, frames) = valid_stream(seed);
        let out = decode_stream(&stream);
        assert!(!out.torn_tail);
        let records: Vec<Record> = frames.into_iter().map(|(_, r)| r).collect();
        assert_eq!(out.records, records);
        decode_as_outside_input(&stream);
    }
}
