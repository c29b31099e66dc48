//! Scalar metrics: monotonic counters and set-anywhere gauges.
//!
//! Both are single relaxed atomics, so a handle can be shared freely
//! between worker threads and a reporter. When telemetry is disabled the
//! owning layer simply holds no handle (an `Option` checked per event) —
//! that is the "free when disabled" contract every instrumented layer in
//! this workspace follows.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

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

/// An instantaneous signed value (queue depth, resident pages, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (may be negative).
    #[inline]
    pub fn adjust(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hit ratio `hits / (hits + misses)` as a fraction in `[0, 1]`,
/// defined as 0.0 when nothing was probed (never NaN — exporters and
/// `MetricsSnapshot::validate` require finite values).
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
    fn gauge_sets_and_adjusts() {
        let g = Gauge::new();
        g.set(10);
        g.adjust(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn hit_ratio_is_finite() {
        assert_eq!(hit_ratio(0, 0), 0.0);
        assert_eq!(hit_ratio(3, 1), 0.75);
        assert!(hit_ratio(u64::MAX / 2, u64::MAX / 2).is_finite());
    }
}
