//! The log's bytes are pinned. A fixed script of appends — allocation
//! images, deltas at the start, middle and end of a page, a whole-page
//! change that becomes an image, a checkpoint with a dirty-page table, a
//! delta of two distant runs and a half-full page's first write — runs
//! over a `MemLogStore` with segments small enough to rotate, and every
//! segment's length and CRC-32 must equal constants captured when the
//! format last moved (to runs: multi-run deltas and sparse images). The
//! append path frames records straight from the borrowed page; these
//! constants are what say the on-log format did not move.
//!
//! Beside the pin, properties: whatever page pair the pool hands the
//! log, the frame it appends is byte for byte `Record::encode` of the
//! owned body a byte-wise diff predicts, `decode_stream` returns that
//! body, the frame is never longer than the whole-image /
//! single-range-delta format's, and redo of the decoded record rebuilds
//! the page. And a log written in that older format (the script's
//! segments as it wrote them, kept under `tests/fixtures/single_range_log/`)
//! still recovers, to the pages the current log of the same script
//! recovers to.

use cor_pagestore::{DiskManager, MemDisk, PageBuf, PAGE_SIZE};
use cor_wal::crc::crc32;
use cor_wal::record::{PageRanges, RANGE_HEADER, RECORD_HEADER};
use cor_wal::{
    decode_stream, recover, FsyncPolicy, LogStore, MemLogStore, Record, RecordBody, Wal, WalConfig,
    WalHook,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

const ZERO: PageBuf = [0; PAGE_SIZE];

/// A page whose every byte differs from its neighbours', keyed by `seed`.
fn patterned(seed: u8) -> PageBuf {
    let mut p = [0u8; PAGE_SIZE];
    for (i, b) in p.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(seed);
    }
    p
}

fn script_wal(store: Arc<MemLogStore>) -> Wal {
    Wal::new(
        store,
        WalConfig {
            fsync: FsyncPolicy::Always,
            // Two whole-image records pass it, so the script rotates.
            segment_bytes: 4096,
        },
    )
}

/// The script as the older format's fixture recorded it; returns the
/// last version of page 1.
fn base_script(wal: &Wal) -> PageBuf {
    // Allocation images: a zero page and a patterned one.
    wal.log_page_image(1, &ZERO).unwrap();
    let p2 = patterned(3);
    wal.log_page_image(2, &p2).unwrap();

    // Deltas on page 1: at the start, in the middle (odd length, off any
    // word boundary), and at the very end.
    let mut v1 = ZERO;
    v1[..5].copy_from_slice(b"start");
    wal.log_page_write(1, &ZERO, &v1).unwrap();
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
    wal.log_page_write(3, &ZERO, &v2).unwrap();

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
    v7
}

/// The pinned script: the older script, then a delta of two distant
/// runs and a half-full page's first write. Returns the store and the
/// log's counters.
fn run_script() -> (Arc<MemLogStore>, cor_wal::WalStatsSnapshot) {
    let store = Arc::new(MemLogStore::new());
    let wal = script_wal(store.clone());
    let v7 = base_script(&wal);
    // Two changes 1,846 bytes apart: a delta of two runs, not one span.
    let mut v8 = v7;
    v8[40..44].fill(0x99);
    v8[1890..1896].fill(0x77);
    wal.log_page_write(1, &v7, &v8).unwrap();
    // A slotted page half full: a header, then records packed at the
    // end, a zero gap between. Its first write is a sparse image.
    let mut half = ZERO;
    half[..16].copy_from_slice(b"hdr:slots=0004..");
    half[PAGE_SIZE / 2..].copy_from_slice(&patterned(9)[PAGE_SIZE / 2..]);
    wal.log_page_write(5, &ZERO, &half).unwrap();
    (store, wal.stats())
}

/// `(length, crc32)` of each segment the script leaves, captured when
/// page records became runs (the older format's pin is
/// [`SINGLE_RANGE_SEGMENTS`]).
const GOLDEN_SEGMENTS: &[(usize, u32)] = &[
    (4254, 3_769_943_669),
    (4130, 1_690_846_214),
    (3306, 3_411_482_445),
];

/// `(appends, images, deltas, checkpoints, bytes)` for the same script;
/// the deltas are the appends that are neither images nor checkpoints.
const GOLDEN_STATS: (u64, u64, u64, u64, u64) = (14, 7, 6, 1, 11_690);

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
            stats.appends - stats.images - stats.checkpoints,
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

/// `(length, crc32)` of the fixture's segments: the pin the older format
/// held for the older script, so the fixture is that format's bytes.
const SINGLE_RANGE_SEGMENTS: &[(usize, u32)] = &[
    (4130, 1_571_047_174),
    (4237, 3_529_388_457),
    (4130, 435_539_466),
    (2139, 2_776_502_943),
];

/// The older script's segments as whole images and single-range deltas.
const SINGLE_RANGE_LOG: [&[u8]; 4] = [
    include_bytes!("fixtures/single_range_log/0.seg"),
    include_bytes!("fixtures/single_range_log/1.seg"),
    include_bytes!("fixtures/single_range_log/2.seg"),
    include_bytes!("fixtures/single_range_log/3.seg"),
];

/// Every page of `disk`, LSN word included.
fn pages(disk: &MemDisk) -> Vec<PageBuf> {
    (0..disk.num_pages())
        .map(|pid| {
            let mut p = ZERO;
            disk.read_page(pid, &mut p).unwrap();
            p
        })
        .collect()
}

#[test]
fn a_log_in_the_older_format_recovers_to_the_same_pages() {
    let got: Vec<(usize, u32)> = SINGLE_RANGE_LOG
        .iter()
        .map(|s| (s.len(), crc32(s)))
        .collect();
    assert_eq!(got, SINGLE_RANGE_SEGMENTS);
    let old = MemLogStore::new();
    for (i, seg) in SINGLE_RANGE_LOG.iter().enumerate() {
        if i > 0 {
            old.rotate(decode_stream(seg).records[0].lsn).unwrap();
        }
        old.append(seg).unwrap();
    }
    old.sync().unwrap();
    let old_disk = MemDisk::new();
    let old_stats = recover(&old_disk, &old).unwrap();

    let new = Arc::new(MemLogStore::new());
    base_script(&script_wal(new.clone()));
    let new_disk = MemDisk::new();
    let new_stats = recover(&new_disk, new.as_ref()).unwrap();

    assert_eq!(old_stats.tail_dropped_bytes, 0);
    assert_eq!(old_stats, new_stats, "same records, same redo decisions");
    assert_eq!(pages(&old_disk), pages(&new_disk));
    assert_eq!(old_disk.num_pages(), 4, "pages 0..=3 rebuilt");
}

/// The runs where `page` differs from `base`, one byte at a time: a
/// changed byte joins the run before it when fewer than a run header's
/// bytes part them.
fn runs_bytewise(base: &PageBuf, page: &PageBuf) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for i in (0..PAGE_SIZE).filter(|&i| base[i] != page[i]) {
        match runs.last_mut() {
            Some((_, end)) if i - *end < RANGE_HEADER => *end = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
    runs
}

fn ranges_of(runs: &[(usize, usize)], page: &PageBuf) -> PageRanges {
    PageRanges::from_runs(runs.iter().map(|&(s, e)| (s, &page[s..e]))).unwrap()
}

/// The record a byte-wise reading of the full-page-write rule predicts
/// for a write of `after` over `before` (`None`: nothing is logged). An
/// image is `after`'s runs against zeros unless those take a whole page
/// or more; a later write is a delta of its runs unless one range from
/// its first to its last changed byte would make an image no bigger.
fn expected_body(imaged: bool, pid: u32, before: &PageBuf, after: &PageBuf) -> Option<RecordBody> {
    let image = || {
        let runs = runs_bytewise(&ZERO, after);
        let wire: usize = runs.iter().map(|(s, e)| RANGE_HEADER + e - s).sum();
        if wire < PAGE_SIZE {
            RecordBody::SparseImage {
                pid,
                ranges: ranges_of(&runs, after),
            }
        } else {
            RecordBody::PageImage {
                pid,
                image: Box::new(*after),
            }
        }
    };
    if !imaged {
        return Some(image());
    }
    let runs = runs_bytewise(before, after);
    let (start, end) = (runs.first()?.0, runs.last()?.1);
    Some(if end - start + 8 < 4 + PAGE_SIZE {
        RecordBody::PageDelta {
            pid,
            ranges: ranges_of(&runs, after),
        }
    } else {
        image()
    })
}

/// Redo of one decoded page record over `before`: an image onto zeros
/// (or whole), a delta onto `before`.
fn redo(body: &RecordBody, before: &PageBuf) -> PageBuf {
    match body {
        RecordBody::PageImage { image, .. } => **image,
        RecordBody::SparseImage { ranges, .. } => {
            let mut page = ZERO;
            ranges.apply(&mut page);
            page
        }
        RecordBody::PageDelta { ranges, .. } => {
            let mut page = *before;
            ranges.apply(&mut page);
            page
        }
        RecordBody::Checkpoint { .. } => panic!("a page write logged a checkpoint"),
    }
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

/// A page as the log may see one: random bytes, zeros, or random bytes
/// up to `cut` and zeros after it (a page filled part way).
fn any_page() -> impl Strategy<Value = PageBuf> {
    (any::<u64>(), 0u8..3, 0..=PAGE_SIZE).prop_map(|(seed, shape, cut)| match shape {
        0 => random_page(seed),
        1 => ZERO,
        _ => {
            let mut p = random_page(seed);
            p[cut..].fill(0);
            p
        }
    })
}

/// Log one write of `after` over `before` to a fresh log (imaged in this
/// epoch first, or not) and return the bytes it appended and its LSN.
fn append_one(pid: u32, before: &PageBuf, after: &PageBuf, imaged: bool) -> (Vec<u8>, u32) {
    let store = Arc::new(MemLogStore::new());
    let wal = Wal::new(store.clone(), WalConfig::default());
    if imaged {
        wal.log_page_image(pid, before).unwrap();
    }
    let logged_before = store.read_segments().unwrap().concat().len();
    let (lsn, _) = wal.log_page_write(pid, before, after).unwrap();
    let log = store.read_segments().unwrap().concat();
    (log[logged_before..].to_vec(), lsn)
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
        let (appended, lsn) = append_one(pid, &before, &after, imaged);
        match expected_body(imaged, pid, &before, &after) {
            None => prop_assert!(appended.is_empty()),
            Some(body) => {
                let rec = Record { lsn, body };
                let mut want = Vec::new();
                rec.encode(&mut want);
                prop_assert_eq!(&appended[..], &want[..]);
                let out = decode_stream(&appended);
                prop_assert!(!out.torn_tail);
                prop_assert_eq!(out.records, vec![rec]);
            }
        }
    }

    /// For any page pair, the appended frame is no longer than the older
    /// format's for the same call — `13 + 4 + 2048` for an image,
    /// `13 + 8 + (end − start)` for a delta spanning `start..end` — and
    /// redo of the decoded record over `before` (an image: over zeros)
    /// rebuilds `after` byte for byte.
    #[test]
    fn frames_never_grow_and_redo_rebuilds_the_page(
        before in any_page(),
        after in any_page(),
        edits in edits(),
        from_before in any::<bool>(),
        imaged in any::<bool>(),
    ) {
        // Half the cases edit `before` rather than draw a second page.
        let mut after = if from_before { before } else { after };
        for &(at, len, val) in &edits {
            let end = (at + len).min(PAGE_SIZE);
            after[at..end].fill(val);
        }
        let (appended, _) = append_one(9, &before, &after, imaged);
        let out = decode_stream(&appended);
        prop_assert!(!out.torn_tail);
        match out.records.first() {
            None => prop_assert!(imaged && before == after, "only an unchanged page logs nothing"),
            Some(rec) => {
                if let RecordBody::PageDelta { .. } = rec.body {
                    let start = (0..PAGE_SIZE).find(|&i| before[i] != after[i]).unwrap();
                    let end = (0..PAGE_SIZE).rfind(|&i| before[i] != after[i]).unwrap() + 1;
                    prop_assert!(appended.len() <= RECORD_HEADER + 8 + (end - start));
                } else {
                    prop_assert!(appended.len() <= RECORD_HEADER + 4 + PAGE_SIZE);
                }
                prop_assert_eq!(redo(&rec.body, &before), after);
            }
        }
    }
}
