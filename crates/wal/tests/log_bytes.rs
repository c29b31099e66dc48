//! The log's bytes are pinned. A fixed script of appends — allocation
//! images, deltas at the start, middle and end of a page, a whole-page
//! change that becomes an image, a checkpoint with a dirty-page table —
//! runs over a `MemLogStore` with segments small enough to rotate, and
//! every segment's length and CRC-32 must equal constants captured from
//! the byte-at-a-time CRC and the buffer-building record encoder. The
//! append path frames records straight from the borrowed page; these
//! constants are what say the on-log format did not move.
//!
//! Beside the pin, a property: whatever page pair the pool hands the log,
//! the frame it appends is byte for byte `Record::encode` of the owned
//! body a byte-wise diff predicts, and `decode_stream` returns that body.

use cor_pagestore::{PageBuf, PAGE_SIZE};
use cor_wal::crc::crc32;
use cor_wal::{
    decode_stream, FsyncPolicy, LogStore, MemLogStore, Record, RecordBody, Wal, WalConfig, WalHook,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// A page whose every byte differs from its neighbours', keyed by `seed`.
fn patterned(seed: u8) -> PageBuf {
    let mut p = [0u8; PAGE_SIZE];
    for (i, b) in p.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(seed);
    }
    p
}

/// The pinned script. Returns the store and the log's counters.
fn run_script() -> (Arc<MemLogStore>, cor_wal::WalStatsSnapshot) {
    let store = Arc::new(MemLogStore::new());
    let wal = Wal::new(
        store.clone(),
        WalConfig {
            fsync: FsyncPolicy::Always,
            // Two image records pass it, so the script rotates often.
            segment_bytes: 4096,
        },
    );
    let zero = [0u8; PAGE_SIZE];
    // Allocation images: a zero page and a patterned one.
    wal.log_page_image(1, &zero).unwrap();
    let p2 = patterned(3);
    wal.log_page_image(2, &p2).unwrap();

    // Deltas on page 1: at the start, in the middle (odd length, off any
    // word boundary), and at the very end.
    let mut v1 = zero;
    v1[..5].copy_from_slice(b"start");
    wal.log_page_write(1, &zero, &v1).unwrap();
    let mut v2 = v1;
    v2[1001..1038].fill(0x5A);
    wal.log_page_write(1, &v1, &v2).unwrap();
    let mut v3 = v2;
    v3[PAGE_SIZE - 3..].copy_from_slice(b"end");
    wal.log_page_write(1, &v2, &v3).unwrap();
    // Unchanged bytes log nothing.
    wal.log_page_write(1, &v3, &v3).unwrap();
    // The image/delta boundary: a range of PAGE_SIZE - 5 bytes is the
    // largest delta; one byte more and the image is no bigger.
    let mut v4 = v3;
    v4[..PAGE_SIZE - 5].fill(0x11);
    wal.log_page_write(1, &v3, &v4).unwrap();
    let mut v5 = v4;
    v5[..PAGE_SIZE - 4].fill(0x22);
    wal.log_page_write(1, &v4, &v5).unwrap();

    // A whole-page change on page 2 becomes an image.
    let p2b = patterned(77);
    wal.log_page_write(2, &p2, &p2b).unwrap();
    // A first write to a page the epoch has not imaged is an image.
    wal.log_page_write(3, &zero, &v2).unwrap();

    // A checkpoint with a dirty-page table; its horizon (LSN 1) keeps
    // every segment.
    wal.checkpoint(|| vec![(1, 1), (2, 2), (3, 9)]).unwrap();

    // After the checkpoint the first write images again, then deltas.
    let mut v6 = v5;
    v6[700] ^= 0xFF;
    wal.log_page_write(1, &v5, &v6).unwrap();
    let mut v7 = v6;
    v7[8..16].fill(0xC3);
    wal.log_page_write(1, &v6, &v7).unwrap();
    (store, wal.stats())
}

/// `(length, crc32)` of each segment the script leaves, captured from
/// the byte-at-a-time CRC and the buffer-building encoder.
const GOLDEN_SEGMENTS: &[(usize, u32)] = &[
    (4130, 1_571_047_174),
    (4237, 3_529_388_457),
    (4130, 435_539_466),
    (2139, 2_776_502_943),
];

/// `(appends, images, deltas, checkpoints, bytes)` for the same script.
const GOLDEN_STATS: (u64, u64, u64, u64, u64) = (12, 6, 5, 1, 14_636);

#[test]
fn log_bytes_match_the_pinned_segments() {
    let (store, stats) = run_script();
    let segments = store.read_segments().unwrap();
    let got: Vec<(usize, u32)> = segments.iter().map(|s| (s.len(), crc32(s))).collect();
    assert_eq!(got, GOLDEN_SEGMENTS);
    assert_eq!(
        (
            stats.appends,
            stats.images,
            stats.deltas,
            stats.checkpoints,
            stats.bytes
        ),
        GOLDEN_STATS
    );
    // Every segment decodes cleanly, and the LSNs run without a gap.
    let lsns: Vec<u32> = segments
        .iter()
        .flat_map(|s| {
            let out = decode_stream(s);
            assert!(!out.torn_tail);
            out.records.into_iter().map(|r| r.lsn)
        })
        .collect();
    assert_eq!(lsns, (1..=stats.appends as u32).collect::<Vec<_>>());
}

/// The record a byte-wise reading of the full-page-write rule predicts
/// for a write of `after` over `before` (`None`: nothing is logged).
fn expected_body(imaged: bool, pid: u32, before: &PageBuf, after: &PageBuf) -> Option<RecordBody> {
    let image = || RecordBody::PageImage {
        pid,
        image: Box::new(*after),
    };
    if !imaged {
        return Some(image());
    }
    let start = (0..PAGE_SIZE).find(|&i| before[i] != after[i])?;
    let end = (0..PAGE_SIZE)
        .rev()
        .find(|&i| before[i] != after[i])
        .unwrap()
        + 1;
    Some(if end - start + 8 < 4 + PAGE_SIZE {
        RecordBody::PageDelta {
            pid,
            offset: start as u16,
            bytes: after[start..end].to_vec(),
        }
    } else {
        image()
    })
}

/// A page of random bytes drawn from `seed`.
fn random_page(seed: u64) -> PageBuf {
    let mut p = [0u8; PAGE_SIZE];
    StdRng::seed_from_u64(seed).fill_bytes(&mut p);
    p
}

/// Edits to a page: `len` copies of `val` at `at`, clipped to the page.
fn edits() -> impl Strategy<Value = Vec<(usize, usize, u8)>> {
    proptest::collection::vec((0..PAGE_SIZE, 1usize..80, any::<u8>()), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The frame the log appends from the borrowed page equals
    /// `Record::encode` of the owned body, and decodes back to it.
    #[test]
    fn appended_frames_are_record_encode_of_the_owned_body(
        seed in any::<u64>(),
        edits in edits(),
        rewrite in 0u8..8,
        imaged in any::<bool>(),
        pid in any::<u32>(),
    ) {
        // One case in eight rewrites the whole page before the edits.
        let before = random_page(seed);
        let mut after = if rewrite == 0 { random_page(!seed) } else { before };
        for &(at, len, val) in &edits {
            let end = (at + len).min(PAGE_SIZE);
            after[at..end].fill(val);
        }
        let store = Arc::new(MemLogStore::new());
        let wal = Wal::new(store.clone(), WalConfig::default());
        if imaged {
            wal.log_page_image(pid, &before).unwrap();
        }
        let logged_before = store.read_segments().unwrap().concat().len();
        let (lsn, _) = wal.log_page_write(pid, &before, &after).unwrap();
        let log = store.read_segments().unwrap().concat();
        let appended = &log[logged_before..];
        match expected_body(imaged, pid, &before, &after) {
            None => prop_assert!(appended.is_empty()),
            Some(body) => {
                let rec = Record { lsn, body };
                let mut want = Vec::new();
                rec.encode(&mut want);
                prop_assert_eq!(appended, &want[..]);
                let out = decode_stream(appended);
                prop_assert!(!out.torn_tail);
                prop_assert_eq!(out.records, vec![rec]);
            }
        }
    }
}
