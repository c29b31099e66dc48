//! Log-bucketed streaming histograms.
//!
//! The driver used to compute p99 latency by collecting every sample in a
//! `Vec` and sorting it — O(n log n) at report time, O(n) memory, and
//! impossible to merge across threads without shipping the vectors around.
//! This histogram records a `u64` sample with two relaxed atomic adds into
//! a fixed 252-bucket table, so it can be shared by reference between
//! worker threads and read once they finish.
//!
//! # Bucket layout
//!
//! Values 0..7 get exact unit buckets. From 8 up, each power-of-two octave
//! `[2^e, 2^(e+1))` is split into 4 linear sub-buckets, so the relative
//! error of a reported quantile is bounded by the sub-bucket width: at most
//! 1/4 of the value (and the reported bound is the bucket's *upper* edge,
//! clamped to the observed max, so quantiles never under-report). 252
//! buckets cover the full `u64` range — nanosecond latencies and page
//! counts alike need no configuration.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in every histogram (unit buckets 0..8 plus 4
/// sub-buckets per octave up to `u64::MAX`).
pub const HIST_BUCKETS: usize = 252;

/// Index of the bucket `v` falls into.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // v in [2^exp, 2^(exp+1))
        let sub = ((v >> (exp - 2)) & 3) as usize;
        ((exp - 3) << 2) + sub + 8
    }
}

/// Largest value that maps into bucket `idx` (inclusive upper edge).
pub fn bucket_upper(idx: usize) -> u64 {
    debug_assert!(idx < HIST_BUCKETS);
    if idx < 8 {
        idx as u64
    } else {
        let exp = 3 + (idx - 8) / 4;
        let sub = ((idx - 8) % 4) as u64;
        let width = 1u64 << (exp - 2);
        // lo + width - 1; for the last bucket this is exactly u64::MAX.
        (1u64 << exp) + sub * width + (width - 1)
    }
}

/// A concurrent streaming histogram over `u64` samples.
///
/// All mutation is relaxed-atomic: `record` is wait-free and safe to call
/// from any number of threads through a shared reference. A [`snapshot`]
/// taken while writers are active is a monitoring view — each counter is
/// individually exact but the set is not read in one instant.
///
/// [`snapshot`]: Histogram::snapshot
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Capture the current bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (between experiment phases; like
    /// `IoStats::reset`, concurrent recording during a reset can leave the
    /// histogram mid-way between old and new state).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`], answering quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (exact — from the tracked sum, not
    /// the buckets). 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper edge of the bucket
    /// containing the rank-`ceil(q * count)` sample, clamped to the
    /// observed `[min, max]` so estimates never fall outside the data.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Occupied buckets as `(inclusive upper edge, count)`, in increasing
    /// order of edge.
    pub fn occupied_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_upper(idx), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Every value maps into a bucket whose upper edge is >= the value,
        // and bucket upper edges are strictly increasing.
        for idx in 1..HIST_BUCKETS {
            assert!(bucket_upper(idx) > bucket_upper(idx - 1), "idx {idx}");
        }
        for v in (0..200u64).chain([1 << 20, (1 << 20) + 123, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "v={v} idx={idx}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "v={v} idx={idx}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 7);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 7);
        assert_eq!(s.mean(), 13.0 / 5.0);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, exact) in [(0.5, 5_000u64), (0.99, 9_900), (1.0, 10_000)] {
            let est = s.quantile(q);
            assert!(est >= exact, "q={q}: {est} < {exact}");
            assert!(
                (est as f64) <= exact as f64 * 1.25 + 1.0,
                "q={q}: {est} vs {exact}"
            );
        }
    }

    #[test]
    fn quantile_is_clamped_to_observed_range() {
        let h = Histogram::new();
        h.record(1000); // bucket upper edge is > 1000
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 1000);
        assert_eq!(s.quantile(0.99), 1000);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s, HistSnapshot::default());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 40_000);
        assert_eq!(snap.occupied_buckets().map(|(_, c)| c).sum::<u64>(), 40_000);
    }

    #[test]
    fn reset_empties() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.snapshot(), HistSnapshot::default());
    }
}
