//! The metrics registry and its structured snapshot.
//!
//! A [`MetricsRegistry`] hands out shared handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) keyed by metric name + label set, and can later collect
//! every registered metric into a [`MetricsSnapshot`] — the structured
//! view the JSON exporter renders.
//!
//! Layers that predate the registry (the buffer pool's shard telemetry,
//! the unit-cache counters) keep their own cheap atomics; the engine folds
//! them into the same snapshot with the `push_*` builders, so every metric
//! flows through one format regardless of where it lives.
//!
//! Registration takes a mutex; the returned handles are lock-free. Hot
//! paths therefore resolve their handles once at construction time.

use crate::hist::{HistSnapshot, Histogram};
use crate::metric::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Label set of one metric sample: `(name, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// Build a [`Labels`] value from `&str` pairs.
pub fn labels(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The kind's name, as the JSON exporter writes it.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram snapshot.
    Histogram(HistSnapshot),
}

/// One labeled sample within a family.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// The sample's label set (may be empty).
    pub labels: Labels,
    /// The sample's value.
    pub value: MetricValue,
}

/// All samples of one named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name (`snake_case`, no trailing `_total`-style suffix
    /// mangling is applied — the name is exported verbatim).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Kind shared by every sample in the family.
    pub kind: MetricKind,
    /// The samples.
    pub samples: Vec<MetricSample>,
}

/// A structured point-in-time view of a set of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Families in registration/insertion order.
    pub families: Vec<MetricFamily>,
}

impl MetricsSnapshot {
    /// An empty snapshot to build on.
    pub fn new() -> Self {
        Self::default()
    }

    fn family_mut(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut MetricFamily {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            assert_eq!(
                self.families[i].kind, kind,
                "metric {name} registered with two kinds"
            );
            return &mut self.families[i];
        }
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    /// Append a counter sample.
    pub fn push_counter(&mut self, name: &str, help: &str, labels: Labels, v: u64) {
        self.family_mut(name, help, MetricKind::Counter)
            .samples
            .push(MetricSample {
                labels,
                value: MetricValue::Counter(v),
            });
    }

    /// Append a gauge sample.
    pub fn push_gauge(&mut self, name: &str, help: &str, labels: Labels, v: f64) {
        self.family_mut(name, help, MetricKind::Gauge)
            .samples
            .push(MetricSample {
                labels,
                value: MetricValue::Gauge(v),
            });
    }

    /// Append a histogram sample.
    pub fn push_histogram(&mut self, name: &str, help: &str, labels: Labels, v: HistSnapshot) {
        self.family_mut(name, help, MetricKind::Histogram)
            .samples
            .push(MetricSample {
                labels,
                value: MetricValue::Histogram(v),
            });
    }

    /// Find a family by name.
    pub fn family(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Check structural health: every family has at least one sample, no
    /// gauge is NaN or infinite, histogram bucket sums match their counts,
    /// and every `required` name is present. The engine's metrics test
    /// runs this over every strategy.
    pub fn validate(&self, required: &[&str]) -> Result<(), String> {
        for name in required {
            if self.family(name).is_none() {
                return Err(format!("required metric {name} is missing"));
            }
        }
        for fam in &self.families {
            if fam.samples.is_empty() {
                return Err(format!("metric {} has no samples", fam.name));
            }
            for s in &fam.samples {
                match &s.value {
                    MetricValue::Gauge(v) if !v.is_finite() => {
                        return Err(format!("gauge {} is not finite: {v}", fam.name));
                    }
                    MetricValue::Histogram(h) => {
                        let bucket_total: u64 = h.occupied_buckets().map(|(_, c)| c).sum();
                        if bucket_total != h.count() {
                            return Err(format!(
                                "histogram {}: buckets sum to {bucket_total}, count is {}",
                                fam.name,
                                h.count()
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

enum Handle {
    C(Arc<Counter>),
    G(Arc<Gauge>),
    H(Arc<Histogram>),
}

struct Registered {
    help: String,
    kind: MetricKind,
    samples: Vec<(Labels, Handle)>,
}

/// A registry of live metric handles.
///
/// ```
/// use cor_obs::{labels, MetricsRegistry};
///
/// let reg = MetricsRegistry::new();
/// let hits = reg.counter("cache_hits", "cache probe hits", labels(&[("level", "l1")]));
/// hits.inc();
/// let snap = reg.snapshot();
/// assert_eq!(snap.families.len(), 1);
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    order: Vec<String>,
    families: HashMap<String, Registered>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry lock");
        f.debug_struct("MetricsRegistry")
            .field("families", &inner.order)
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    #[allow(clippy::too_many_arguments)]
    fn register<T>(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: Labels,
        make: impl FnOnce() -> Arc<T>,
        wrap: impl Fn(Arc<T>) -> Handle,
        unwrap: impl Fn(&Handle) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut inner = self.inner.lock().expect("registry lock");
        if !inner.families.contains_key(name) {
            inner.order.push(name.to_string());
            inner.families.insert(
                name.to_string(),
                Registered {
                    help: help.to_string(),
                    kind,
                    samples: Vec::new(),
                },
            );
        }
        let fam = inner.families.get_mut(name).expect("just inserted");
        assert_eq!(fam.kind, kind, "metric {name} registered with two kinds");
        if let Some((_, h)) = fam.samples.iter().find(|(l, _)| *l == labels) {
            return unwrap(h).expect("kind checked above");
        }
        let handle = make();
        fam.samples.push((labels, wrap(Arc::clone(&handle))));
        handle
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str, help: &str, labels: Labels) -> Arc<Counter> {
        self.register(
            name,
            help,
            MetricKind::Counter,
            labels,
            || Arc::new(Counter::new()),
            Handle::C,
            |h| match h {
                Handle::C(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: Labels) -> Arc<Gauge> {
        self.register(
            name,
            help,
            MetricKind::Gauge,
            labels,
            || Arc::new(Gauge::new()),
            Handle::G,
            |h| match h {
                Handle::G(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: Labels) -> Arc<Histogram> {
        self.register(
            name,
            help,
            MetricKind::Histogram,
            labels,
            || Arc::new(Histogram::new()),
            Handle::H,
            |h| match h {
                Handle::H(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Collect every registered metric into a snapshot, in registration
    /// order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock");
        let mut snap = MetricsSnapshot::new();
        for name in &inner.order {
            let fam = &inner.families[name];
            for (labels, handle) in &fam.samples {
                match handle {
                    Handle::C(c) => snap.push_counter(name, &fam.help, labels.clone(), c.get()),
                    Handle::G(g) => {
                        snap.push_gauge(name, &fam.help, labels.clone(), g.get() as f64)
                    }
                    Handle::H(h) => {
                        snap.push_histogram(name, &fam.help, labels.clone(), h.snapshot())
                    }
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("events", "events seen", labels(&[("kind", "a")]));
        let c2 = reg.counter("events", "events seen", labels(&[("kind", "a")]));
        c.add(3);
        c2.inc(); // same handle
        reg.counter("events", "events seen", labels(&[("kind", "b")]))
            .inc();
        reg.gauge("depth", "queue depth", Labels::new()).set(-2);
        reg.histogram("lat", "latency", Labels::new()).record(100);

        let snap = reg.snapshot();
        assert_eq!(snap.families.len(), 3);
        let events = snap.family("events").unwrap();
        assert_eq!(events.samples.len(), 2);
        assert_eq!(events.samples[0].value, MetricValue::Counter(4));
        assert_eq!(events.samples[1].value, MetricValue::Counter(1));
        assert!(snap.validate(&["events", "depth", "lat"]).is_ok());
        assert!(snap.validate(&["absent"]).is_err());
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", "", Labels::new());
        reg.gauge("x", "", Labels::new());
    }

    #[test]
    fn validate_rejects_non_finite_gauges() {
        let mut s = MetricsSnapshot::new();
        s.push_gauge("bad", "", Labels::new(), f64::NAN);
        assert!(s.validate(&[]).is_err());
    }
}
