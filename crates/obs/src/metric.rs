//! Scalar metrics: a monotonic counter and the hit ratio of two of them.
//!
//! A [`Counter`] is a single relaxed atomic, so a handle can be shared freely
//! between worker threads and a reporter. When telemetry is disabled the
//! owning layer simply holds no handle (an `Option` checked per event) —
//! that is the "free when disabled" contract every instrumented layer in
//! this workspace follows.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one event.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hit ratio `hits / (hits + misses)` as a fraction in `[0, 1]`,
/// defined as 0.0 when nothing was probed (never NaN).
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    let probes = hits + misses;
    if probes == 0 {
        0.0
    } else {
        hits as f64 / probes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn hit_ratio_is_finite() {
        assert_eq!(hit_ratio(0, 0), 0.0);
        assert_eq!(hit_ratio(3, 1), 0.75);
        assert!(hit_ratio(u64::MAX / 2, u64::MAX / 2).is_finite());
    }
}
