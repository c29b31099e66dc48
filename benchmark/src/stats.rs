//! Small-sample statistics the harness reports: equal-count slicing with
//! the median slice, percentile selection that refuses thin tails, and
//! the process's peak resident set.

use std::fmt;

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has a fixed, non-zero count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Cut `0..n` into `k` contiguous slices whose lengths differ by at most
/// one; every index lands in exactly one slice.
pub fn slice_bounds(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    assert!(k > 0 && n >= k, "need at least one item per slice");
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// Throughput of the median slice: `busy_ns[i]` is the time operation `i`
/// kept the single client waiting (checkpoints are charged to the
/// operation they follow). Returns operations per second.
pub fn median_slice_rate(busy_ns: &[u64], slices: usize) -> f64 {
    let rates: Vec<f64> = slice_bounds(busy_ns.len(), slices)
        .into_iter()
        .map(|r| {
            let ops = r.len() as f64;
            let ns: u64 = busy_ns[r].iter().sum();
            ops / (ns as f64 / 1e9)
        })
        .collect();
    median(&rates)
}

/// Why a percentile was not reported.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refused: {} samples leave {} beyond the percentile, need {}",
            self.samples, self.beyond, MIN_SAMPLES_BEYOND
        )
    }
}

/// Nearest-rank position (1-based) of percentile `p` in (0, 1) among `n`
/// ascending samples, refused when fewer than [`MIN_SAMPLES_BEYOND`] lie
/// beyond it. Needs only the count, so a run can be refused before it starts.
pub fn percentile_rank(n: usize, p: f64) -> Result<usize, TooFewSamples> {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(rank)
}

/// Nearest-rank percentile of an ascending-sorted sample, refused like
/// [`percentile_rank`].
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, TooFewSamples> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sorted input");
    Ok(sorted[percentile_rank(sorted.len(), p)? - 1])
}

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`, which the kernel reports in kB).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_every_index_once_with_equal_counts() {
        for (n, k) in [(10, 5), (12_000, 5), (13, 5), (5, 5)] {
            let b = slice_bounds(n, k);
            assert_eq!(b.len(), k);
            assert_eq!(b[0].start, 0);
            assert_eq!(b[k - 1].end, n);
            for w in b.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let (min, max) = b.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len()), hi.max(r.len()))
            });
            assert!(max - min <= 1, "n={n} k={k}");
        }
    }

    #[test]
    fn median_slice_ignores_one_slow_slice() {
        // Five slices of two ops; one slice is 100x slower.
        let mut busy = vec![1_000_000u64; 10];
        busy[4] = 100_000_000;
        busy[5] = 100_000_000;
        let rate = median_slice_rate(&busy, 5);
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Ok(50));
        assert_eq!(percentile(&s, 0.9), Ok(90));
    }

    #[test]
    fn percentile_refuses_a_thin_tail_and_says_so() {
        let s: Vec<u64> = (1..=100).collect();
        // p99 of 100 samples leaves one sample beyond it.
        let err = percentile(&s, 0.99).unwrap_err();
        assert_eq!(
            err,
            TooFewSamples {
                samples: 100,
                beyond: 1
            }
        );
        assert!(err.to_string().contains("refused"), "{err}");
        // Exactly ten beyond is the smallest accepted tail.
        assert_eq!(percentile(&s, 0.90), Ok(90));
        assert!(percentile(&s[..99], 0.90).is_err());
        assert!(percentile(&[], 0.5).is_err());
        // The count alone decides, so a run can be refused up front.
        assert_eq!(percentile_rank(1000, 0.99), Ok(990));
        assert!(percentile_rank(999, 0.99).is_err());
    }

    #[test]
    fn vm_hwm_parses_and_is_live() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
