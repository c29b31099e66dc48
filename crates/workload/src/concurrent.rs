//! Multi-stream serving (beyond the paper): what a concurrent run
//! reports and how its streams are generated.
//!
//! The paper's yardstick is single-stream average I/O; the ROADMAP's
//! north star adds *serving*: many clients running query sequences
//! against one shared database. [`Engine::run_concurrent`] runs M streams
//! on scoped threads over one engine (whose sharded buffer pool they
//! contend on) and reports both the paper's average-I/O metric and
//! wall-clock throughput/latency (queries/sec, mean and p99 per-op
//! latency) in the types below.
//!
//! [`Engine::run_concurrent`]: crate::Engine::run_concurrent

use crate::params::Params;
use complexobj::{Query, Strategy};
use cor_obs::HistSnapshot;
use std::time::Duration;

/// Latency summary over a set of per-operation samples.
///
/// Derived from a streaming [`cor_obs::Histogram`], not a sorted sample vector:
/// quantiles are the containing bucket's upper edge (within 25% above the
/// true order statistic, never below it), the mean is exact, and
/// summaries from different threads merge by bucket addition.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Mean per-operation latency (exact).
    pub mean: Duration,
    /// Median per-operation latency.
    pub p50: Duration,
    /// 99th-percentile per-operation latency.
    pub p99: Duration,
    /// Slowest single operation (exact).
    pub max: Duration,
}

impl LatencySummary {
    /// Summarize an already-collected nanosecond histogram.
    pub fn from_histogram(h: &HistSnapshot) -> Self {
        if h.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            mean: Duration::from_nanos(h.mean().round() as u64),
            p50: Duration::from_nanos(h.quantile(0.5)),
            p99: Duration::from_nanos(h.quantile(0.99)),
            max: Duration::from_nanos(h.max()),
        }
    }
}

/// Aggregated result of one concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentRunResult {
    /// The strategy measured.
    pub strategy: Strategy,
    /// Streams that ran.
    pub streams: usize,
    /// Queries executed across all streams.
    pub queries: usize,
    /// Retrieves among them.
    pub retrieves: usize,
    /// Updates among them.
    pub updates: usize,
    /// Total page I/O across all streams (exact; atomically counted).
    pub total_io: u64,
    /// Attribute values returned by the retrieves.
    pub values_returned: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Per-operation latency summary across all streams.
    pub latency: LatencySummary,
    /// The full per-operation latency histogram (nanoseconds) behind
    /// [`Self::latency`], mergeable across runs.
    pub latency_hist: HistSnapshot,
}

impl ConcurrentRunResult {
    /// The paper's yardstick, aggregated: average I/O per query.
    pub fn avg_io_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.total_io as f64 / self.queries as f64
    }

    /// Wall-clock throughput in queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.queries as f64 / secs
    }
}

/// One observation delivered to a live reporter while a concurrent run is
/// in flight.
#[derive(Debug, Clone)]
pub struct LiveTick {
    /// Queries completed so far, across all streams.
    pub queries_done: u64,
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
    /// Cumulative latency histogram of the operations completed so far. Its
    /// [`delta`](HistSnapshot::delta) against the previous tick's is the
    /// histogram of the queries finished in between (what `corstat
    /// --watch` prints).
    pub latency_hist: HistSnapshot,
}

/// Generate one query sequence per stream, each from its own derived
/// seed so streams don't replay each other (stream 0 replays the
/// sequential [`crate::seqgen::generate_sequence`] stream exactly).
pub fn generate_stream_sequences(params: &Params, streams: usize) -> Vec<Vec<Query>> {
    assert!(streams >= 1, "at least one stream");
    (0..streams as u64)
        .map(|i| {
            let p = Params {
                seed: params.seed.wrapping_add(i.wrapping_mul(0x5DEECE66D)),
                ..params.clone()
            };
            crate::seqgen::generate_sequence(&p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate;
    use crate::engine::Engine;
    use crate::seqgen::generate_sequence;

    fn tiny(shards: usize) -> Params {
        Params {
            parent_card: 300,
            num_top: 5,
            sequence_len: 40,
            buffer_pages: 16,
            shards,
            ..Params::paper_default()
        }
    }

    #[test]
    fn single_stream_matches_sequential_driver() {
        let p = tiny(1);
        let generated = generate(&p);
        let sequence = generate_sequence(&p);

        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let seq_result = engine.run_sequence(Strategy::Dfs, &sequence).unwrap();
        let conc_result = engine
            .run_concurrent(Strategy::Dfs, std::slice::from_ref(&sequence), None)
            .unwrap();

        assert_eq!(conc_result.streams, 1);
        assert_eq!(conc_result.queries, seq_result.queries);
        assert_eq!(conc_result.retrieves, seq_result.retrieves);
        assert_eq!(conc_result.total_io, seq_result.total_io);
        assert_eq!(conc_result.values_returned, seq_result.values_returned);
        assert!((conc_result.avg_io_per_query() - seq_result.avg_io_per_query()).abs() < 1e-12);
    }

    #[test]
    fn concurrent_streams_return_every_stream_answer() {
        let p = tiny(4);
        let generated = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();

        let sequences = generate_stream_sequences(&p, 4);
        // Read-only streams: the union of answers is interleaving-free.
        let expected: u64 = sequences
            .iter()
            .map(|s| {
                engine
                    .run_sequence(Strategy::Dfs, s)
                    .unwrap()
                    .values_returned
            })
            .sum();

        let r = engine
            .run_concurrent(Strategy::Dfs, &sequences, None)
            .unwrap();
        assert_eq!(r.streams, 4);
        assert_eq!(r.queries, 4 * p.sequence_len);
        assert_eq!(r.values_returned, expected);
        assert!(r.total_io > 0);
        assert!(r.queries_per_sec() > 0.0);
        assert!(r.latency.p50 <= r.latency.p99 && r.latency.p99 <= r.latency.max);
        assert!(r.latency.mean <= r.latency.max);
        assert_eq!(r.latency_hist.count(), r.queries as u64);
    }

    #[test]
    fn mixed_update_streams_complete_without_error() {
        let p = Params {
            pr_update: 0.3,
            ..tiny(4)
        };
        let generated = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let sequences = generate_stream_sequences(&p, 4);
        let r = engine
            .run_concurrent(Strategy::Dfs, &sequences, None)
            .unwrap();
        assert!(r.updates > 0, "sequence mix includes updates");
        assert_eq!(r.retrieves + r.updates, r.queries);
    }

    #[test]
    fn live_reporter_ticks_with_sane_progress() {
        use std::sync::Mutex;
        let p = Params {
            sequence_len: 200,
            ..tiny(4)
        };
        let generated = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let sequences = generate_stream_sequences(&p, 4);
        let ticks: Mutex<Vec<LiveTick>> = Mutex::new(Vec::new());
        let callback = |t: LiveTick| ticks.lock().unwrap().push(t);
        let r = engine
            .run_concurrent(
                Strategy::Dfs,
                &sequences,
                Some((Duration::from_millis(1), &callback)),
            )
            .unwrap();
        assert_eq!(r.queries, 4 * p.sequence_len);
        let ticks = ticks.into_inner().unwrap();
        // 800 cold-buffer queries take well over a millisecond; the
        // monitor must have observed the run at least once mid-flight.
        assert!(!ticks.is_empty(), "reporter never fired");
        for w in ticks.windows(2) {
            assert!(w[0].queries_done <= w[1].queries_done, "progress monotone");
            assert!(w[0].elapsed <= w[1].elapsed, "clock monotone");
        }
        let last = ticks.last().unwrap();
        // The monitor flushes one final tick after the workers have all
        // joined, so the closing line always reports the completed run.
        assert_eq!(last.queries_done, r.queries as u64);
        assert_eq!(last.latency_hist.count(), r.queries as u64);
        assert!(last.latency_hist.quantile(0.5) <= last.latency_hist.max());
    }

    #[test]
    fn reporter_fires_even_when_run_is_shorter_than_interval() {
        use std::sync::Mutex;
        let p = tiny(1); // 40 queries: far shorter than the 60s interval
        let generated = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let sequences = generate_stream_sequences(&p, 1);
        let ticks: Mutex<Vec<LiveTick>> = Mutex::new(Vec::new());
        let callback = |t: LiveTick| ticks.lock().unwrap().push(t);
        let r = engine
            .run_concurrent(
                Strategy::Dfs,
                &sequences,
                Some((Duration::from_secs(60), &callback)),
            )
            .unwrap();
        let ticks = ticks.into_inner().unwrap();
        assert_eq!(ticks.len(), 1, "exactly the final flush fired");
        assert_eq!(ticks[0].queries_done, r.queries as u64);
    }

    #[test]
    fn stream_sequences_differ_but_stream_zero_is_canonical() {
        let p = tiny(1);
        let seqs = generate_stream_sequences(&p, 3);
        assert_eq!(seqs[0], generate_sequence(&p));
        assert_ne!(seqs[0], seqs[1]);
        assert_ne!(seqs[1], seqs[2]);
    }
}
