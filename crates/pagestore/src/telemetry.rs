//! Per-shard buffer-pool telemetry.
//!
//! [`IoStats`](crate::stats::IoStats) counts *physical transfers* — the
//! paper's cost metric — and must stay byte-identical whether or not
//! observability is on. This module counts *pool behaviour*: page-table
//! hits and faults, evictions, dirty write-backs and pin-wait failures,
//! one counter set per lock stripe so a hot shard is visible as such.
//! Telemetry is opt-in at pool construction
//! ([`BufferPoolBuilder::telemetry`](crate::buffer::BufferPoolBuilder::telemetry));
//! a disabled pool holds no counters at all, keeping the hot path free of
//! even relaxed atomic adds.

use cor_obs::{hit_ratio, Counter};

/// Live per-shard counters. One instance per [`Shard`](crate::buffer::BufferPool)
/// stripe when telemetry is enabled.
#[derive(Debug, Default)]
pub struct ShardTelemetry {
    /// Page-table hits in `pin` (page already resident).
    pub hits: Counter,
    /// Page faults in `pin` (page read in from disk).
    pub misses: Counter,
    /// Resident pages detached to make room for another page.
    pub evictions: Counter,
    /// Dirty pages written back to disk (on eviction or flush).
    pub writebacks: Counter,
    /// Pin requests that failed because every candidate frame was pinned.
    pub pin_waits: Counter,
}

impl ShardTelemetry {
    /// Hit fraction over all probes so far (0.0 before any probe).
    pub fn hit_ratio(&self) -> f64 {
        hit_ratio(self.hits.get(), self.misses.get())
    }

    /// Capture the counters, tagging them with the shard index.
    pub fn snapshot(&self, shard: usize) -> ShardTelemetrySnapshot {
        ShardTelemetrySnapshot {
            shard,
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            writebacks: self.writebacks.get(),
            pin_waits: self.pin_waits.get(),
        }
    }
}

/// A point-in-time copy of one shard's telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardTelemetrySnapshot {
    /// Index of the lock stripe these counters belong to.
    pub shard: usize,
    /// Page-table hits.
    pub hits: u64,
    /// Page faults.
    pub misses: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty write-backs.
    pub writebacks: u64,
    /// Failed pin attempts (all frames pinned).
    pub pin_waits: u64,
}

impl ShardTelemetrySnapshot {
    /// Total pin probes (hits + misses).
    pub fn probes(&self) -> u64 {
        self.hits + self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let t = ShardTelemetry::default();
        t.hits.add(3);
        t.misses.inc();
        t.writebacks.inc();
        let s = t.snapshot(2);
        assert_eq!(s.shard, 2);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert_eq!(s.probes(), 4);
        assert_eq!(t.hit_ratio(), 0.75);
    }

    #[test]
    fn empty_ratio_is_zero_not_nan() {
        assert_eq!(ShardTelemetry::default().hit_ratio(), 0.0);
    }
}
