//! External merge sort over byte records.
//!
//! The competitive BFS strategy of Sec. 3.1 sorts its temporary relation of
//! OIDs so a merge join against the OID-ordered ChildRel B-tree is
//! possible. Every sort key in this workspace is a byte-comparable prefix
//! (OIDs and cluster numbers encode big-endian), so records are ordered by
//! plain byte-wise comparison.
//!
//! Run generation respects a work-memory budget; runs spill to temporary
//! heap files ([`HeapFile::temp`]: unlogged, forced to the store when
//! complete, freed when the [`SortedStream`] is dropped) whose page I/O is
//! accounted by the shared buffer pool, so the cost of "forming a
//! temporary" that the paper observes at low NumTop shows up naturally.
//! An input that fits in work memory sorts without any I/O.

use crate::heap::{HeapFile, HeapScan};
use crate::AccessError;
use cor_obs::{Phase, PhaseGuard};
use cor_pagestore::BufferPool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Default sort work memory: the paper's 100-page buffer would realistically
/// give the sorter a fraction; 32 pages of 2 KB.
pub const DEFAULT_WORK_MEM: usize = 32 * cor_pagestore::PAGE_SIZE;

/// Sort `input` records byte-wise, spilling runs through `pool` when the
/// work-memory budget is exceeded. With `dedup`, exact duplicate records
/// are removed (the BFSNODUP strategy).
///
/// ```
/// use cor_access::{external_sort, DEFAULT_WORK_MEM};
/// use cor_pagestore::{BufferPool, IoStats, MemDisk};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let records = vec![b"b".to_vec(), b"a".to_vec(), b"a".to_vec()];
/// let sorted: Vec<_> = external_sort(&pool, records.into_iter(), DEFAULT_WORK_MEM, true)
///     .unwrap()
///     .collect();
/// assert_eq!(sorted, vec![b"a".to_vec(), b"b".to_vec()]); // sorted + deduped
/// ```
pub fn external_sort(
    pool: &Arc<BufferPool>,
    input: impl Iterator<Item = Vec<u8>>,
    work_mem: usize,
    dedup: bool,
) -> Result<SortedStream, AccessError> {
    let mut runs: Vec<HeapFile> = Vec::new();
    let mut current: Vec<Vec<u8>> = Vec::new();
    let mut current_bytes = 0usize;

    let flush = |current: &mut Vec<Vec<u8>>, runs: &mut Vec<HeapFile>| -> Result<(), AccessError> {
        // Spill I/O belongs to the sort even when the sort runs inside a
        // broader bracket (e.g. a merge join consuming this stream).
        let _phase = PhaseGuard::enter(Phase::Sort);
        current.sort_unstable();
        if dedup {
            current.dedup();
        }
        let run = HeapFile::temp(Arc::clone(pool))?;
        run.append_all(current)?;
        // A spilled run has left work memory for the store: its pages are
        // forced, like the BFS temporary's, so the write half of "one
        // write plus one read per spilled page" is charged to this sort.
        // Left to eviction it would land on whichever query needed the
        // frames next, or — the run being freed with the stream — nowhere.
        run.flush()?;
        runs.push(run);
        current.clear();
        Ok(())
    };

    for rec in input {
        current_bytes += rec.len() + 16;
        current.push(rec);
        if current_bytes > work_mem {
            flush(&mut current, &mut runs)?;
            current_bytes = 0;
        }
    }

    if runs.is_empty() {
        // Everything fit in memory: no spill, no I/O.
        current.sort_unstable();
        if dedup {
            current.dedup();
        }
        return Ok(SortedStream::Memory(current.into_iter()));
    }
    if !current.is_empty() {
        flush(&mut current, &mut runs)?;
    }

    let mut scans: Vec<HeapScan> = runs.iter().map(|r| r.scan()).collect();
    let mut heap = BinaryHeap::new();
    {
        let _phase = PhaseGuard::enter(Phase::Sort);
        for (i, scan) in scans.iter_mut().enumerate() {
            if let Some((_, rec)) = scan.next() {
                heap.push(Reverse((rec, i)));
            }
        }
    }
    Ok(SortedStream::Merge(MergeRuns {
        _runs: runs,
        scans,
        heap,
        dedup,
        last: None,
    }))
}

/// The output of [`external_sort`]: either a fully in-memory sorted vector
/// or a streaming k-way merge over spilled runs.
pub enum SortedStream {
    /// Input fit in work memory.
    Memory(std::vec::IntoIter<Vec<u8>>),
    /// Streaming merge over spilled runs.
    Merge(MergeRuns),
}

impl Iterator for SortedStream {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            SortedStream::Memory(it) => it.next(),
            SortedStream::Merge(m) => m.next(),
        }
    }
}

/// K-way merge over sorted spill runs.
pub struct MergeRuns {
    /// Owns the spill runs: dropping the stream drops them, which frees
    /// their pages.
    _runs: Vec<HeapFile>,
    scans: Vec<HeapScan>,
    heap: BinaryHeap<Reverse<(Vec<u8>, usize)>>,
    dedup: bool,
    last: Option<Vec<u8>>,
}

impl Iterator for MergeRuns {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let Reverse((rec, i)) = self.heap.pop()?;
            if let Some((_, next)) = {
                // Run read-back is sort I/O regardless of who consumes the
                // merged stream.
                let _phase = PhaseGuard::enter(Phase::Sort);
                self.scans[i].next()
            } {
                self.heap.push(Reverse((next, i)));
            }
            if self.dedup {
                if self.last.as_deref() == Some(rec.as_slice()) {
                    continue;
                }
                self.last = Some(rec.clone());
            }
            return Some(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    fn scrambled(n: u64) -> Vec<Vec<u8>> {
        let mut k = 12345u64;
        (0..n)
            .map(|_| {
                k = k
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (k % (n * 2)).to_be_bytes().to_vec()
            })
            .collect()
    }

    #[test]
    fn in_memory_sort_no_io() {
        let p = pool(8);
        let input = scrambled(100);
        let before = p.stats().snapshot();
        let sorted: Vec<_> = external_sort(&p, input.clone().into_iter(), DEFAULT_WORK_MEM, false)
            .unwrap()
            .collect();
        assert_eq!(p.stats().snapshot().since(&before).total(), 0);
        let mut expect = input;
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn spilled_sort_is_correct() {
        let p = pool(8);
        let input = scrambled(5000);
        // Tiny work memory: force many runs.
        let sorted: Vec<_> = external_sort(&p, input.clone().into_iter(), 4096, false)
            .unwrap()
            .collect();
        assert!(
            p.stats().writes() > 0 || p.stats().allocations() > 0,
            "must have spilled"
        );
        let mut expect = input;
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn dedup_in_memory_and_spilled() {
        let p = pool(8);
        let mut input = scrambled(1000);
        input.extend(scrambled(1000)); // guaranteed duplicates
        let mut expect = input.clone();
        expect.sort();
        expect.dedup();

        let mem: Vec<_> = external_sort(&p, input.clone().into_iter(), usize::MAX, true)
            .unwrap()
            .collect();
        assert_eq!(mem, expect);

        let spilled: Vec<_> = external_sort(&p, input.into_iter(), 2048, true)
            .unwrap()
            .collect();
        assert_eq!(spilled, expect);
    }

    #[test]
    fn empty_input() {
        let p = pool(4);
        let sorted: Vec<Vec<u8>> = external_sort(&p, std::iter::empty(), DEFAULT_WORK_MEM, false)
            .unwrap()
            .collect();
        assert!(sorted.is_empty());
    }

    #[test]
    fn variable_length_records_sort_bytewise() {
        let p = pool(4);
        let input: Vec<Vec<u8>> =
            vec![b"b".to_vec(), b"ab".to_vec(), b"a".to_vec(), b"aa".to_vec()];
        let sorted: Vec<_> = external_sort(&p, input.into_iter(), usize::MAX, false)
            .unwrap()
            .collect();
        assert_eq!(
            sorted,
            vec![b"a".to_vec(), b"aa".to_vec(), b"ab".to_vec(), b"b".to_vec()]
        );
    }
}
