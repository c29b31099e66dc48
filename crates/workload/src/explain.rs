//! EXPLAIN-style per-query I/O profiling.
//!
//! [`Engine::explain`] runs a query sequence under one trace
//! ([`cor_obs::tracetree`]) and returns an [`ExplainReport`]: measured
//! I/O and wall time per phase, read from the finished phase ledger,
//! the per-retrieve average, and — when workload
//! parameters are supplied — the paper's analytical prediction from
//! [`complexobj::cost`] with the relative error. Reports render as a
//! human table ([`ExplainReport::render`]) and as one structured JSON
//! line ([`ExplainReport::to_jsonl`]) for capture/replay regression
//! checks (the `explain` bench binary's `--replay` mode).
//!
//! Profiling is additive-only: the physical I/O a profiled run performs
//! is byte-identical to an unprofiled one, because the trace is fed by
//! the existing [`IoStats`](cor_pagestore::IoStats) counting calls
//! rather than adding or reordering page accesses.

use crate::driver::RunResult;
use crate::engine::Engine;
use crate::params::Params;
use complexobj::cost::{self, Geometry, Prediction, Workload};
use complexobj::{CorError, ExecOptions, Query, Strategy};
use cor_obs::{tracetree, Phase, PHASE_COUNT};
use cor_pagestore::IoDelta;

/// Measured I/O and wall time for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRow {
    /// The phase.
    pub phase: Phase,
    /// Physical page reads attributed to the phase.
    pub reads: u64,
    /// Physical page writes attributed to the phase.
    pub writes: u64,
    /// Wall time spent with the phase current, in nanoseconds.
    pub wall_ns: u64,
}

impl PhaseRow {
    /// Reads + writes.
    pub fn io(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The outcome of [`Engine::explain`]: one profiled sequence run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// Strategy that served the sequence.
    pub strategy: Strategy,
    /// Queries in the sequence.
    pub queries: usize,
    /// Retrieves among them (prediction covers retrieves only).
    pub retrieves: usize,
    /// Values returned across the sequence.
    pub values_returned: u64,
    /// Measured physical I/O for the whole sequence.
    pub total: IoDelta,
    /// Per-phase attribution, every phase in [`Phase::ALL`] order. Sums
    /// exactly to `total` — the attribution is exhaustive (the `other`
    /// bucket catches unbracketed I/O).
    pub phases: Vec<PhaseRow>,
    /// Wall time for the sequence in nanoseconds: the trace's
    /// `total_ns`, which the per-phase `wall_ns` sum to exactly.
    pub wall_ns: u64,
    /// Measured average I/O per retrieve (the paper's yardstick).
    pub avg_retrieve_io: f64,
    /// Analytical expected I/O per retrieve, when parameters were given.
    pub predicted: Option<Prediction>,
    /// `(measured − predicted) / predicted`, when a prediction exists
    /// and is nonzero.
    pub rel_error: Option<f64>,
}

/// The deterministic fields of one capture line, as returned by
/// [`ExplainReport::parse_replay_line`]: `(strategy, reads, writes,
/// per-phase (reads, writes) in [`Phase::ALL`] order)`.
pub type ReplayLine = (String, u64, u64, Vec<(u64, u64)>);

impl ExplainReport {
    /// Per-phase I/O summed — equals `total` by construction.
    pub fn phase_io_sum(&self) -> u64 {
        self.phases.iter().map(|r| r.io()).sum()
    }

    /// Render the human-facing breakdown table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN {} — {} queries ({} retrieves), {} values\n",
            self.strategy, self.queries, self.retrieves, self.values_returned
        ));
        out.push_str(&format!(
            "{:<14} {:>8} {:>8} {:>8} {:>7} {:>10}\n",
            "phase", "reads", "writes", "io", "io%", "wall_ms"
        ));
        let total_io = self.total.total().max(1);
        for row in &self.phases {
            if row.io() == 0 && row.wall_ns == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<14} {:>8} {:>8} {:>8} {:>6.1}% {:>10.3}\n",
                row.phase.name(),
                row.reads,
                row.writes,
                row.io(),
                100.0 * row.io() as f64 / total_io as f64,
                row.wall_ns as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>8} {:>8} {:>8} {:>6.1}% {:>10.3}\n",
            "total",
            self.total.reads,
            self.total.writes,
            self.total.total(),
            100.0,
            self.wall_ns as f64 / 1e6,
        ));
        out.push_str(&format!(
            "avg I/O per retrieve: measured {:.2}",
            self.avg_retrieve_io
        ));
        if let Some(p) = &self.predicted {
            out.push_str(&format!(
                ", predicted {:.2} (par {:.2} + child {:.2})",
                p.total(),
                p.par,
                p.child
            ));
        }
        if let Some(e) = self.rel_error {
            out.push_str(&format!(", rel err {:+.1}%", 100.0 * e));
        }
        out.push('\n');
        out
    }

    /// One JSON line for `results/explain/*.jsonl` — stable field order,
    /// hand-rolled like the repo's other exporters (no serde_json).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"schema_version\":1");
        s.push_str(&format!(",\"strategy\":\"{}\"", self.strategy));
        s.push_str(&format!(
            ",\"queries\":{},\"retrieves\":{},\"values\":{}",
            self.queries, self.retrieves, self.values_returned
        ));
        s.push_str(&format!(
            ",\"reads\":{},\"writes\":{}",
            self.total.reads, self.total.writes
        ));
        s.push_str(&format!(",\"avg_retrieve_io\":{:.6}", self.avg_retrieve_io));
        match &self.predicted {
            Some(p) => s.push_str(&format!(
                ",\"predicted\":{:.6},\"predicted_par\":{:.6},\"predicted_child\":{:.6}",
                p.total(),
                p.par,
                p.child
            )),
            None => s.push_str(",\"predicted\":null"),
        }
        match self.rel_error {
            Some(e) => s.push_str(&format!(",\"rel_error\":{e:.6}")),
            None => s.push_str(",\"rel_error\":null"),
        }
        s.push_str(",\"phases\":{");
        for (i, row) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"reads\":{},\"writes\":{},\"wall_ns\":{}}}",
                row.phase.name(),
                row.reads,
                row.writes,
                row.wall_ns
            ));
        }
        s.push_str("}}");
        s
    }

    /// Parse the deterministic fields back out of a [`to_jsonl`](ExplainReport::to_jsonl) line for
    /// replay comparison: `(strategy, reads, writes, per-phase (reads,
    /// writes) in [`Phase::ALL`] order)`. Wall times and derived floats
    /// are not compared — they vary run to run.
    pub fn parse_replay_line(line: &str) -> Option<ReplayLine> {
        fn field_u64(s: &str, key: &str, from: usize) -> Option<u64> {
            let pat = format!("\"{key}\":");
            let at = s[from..].find(&pat)? + from + pat.len();
            let rest = &s[at..];
            let end = rest.find(|c: char| !c.is_ascii_digit())?;
            rest[..end].parse().ok()
        }
        let strat = {
            let pat = "\"strategy\":\"";
            let at = line.find(pat)? + pat.len();
            let end = line[at..].find('"')? + at;
            line[at..end].to_string()
        };
        let reads = field_u64(line, "reads", 0)?;
        let writes = field_u64(line, "writes", 0)?;
        let phases_at = line.find("\"phases\":")?;
        let mut per_phase = Vec::with_capacity(PHASE_COUNT);
        let mut cursor = phases_at;
        for phase in Phase::ALL {
            let pat = format!("\"{}\":{{", phase.name());
            let at = line[cursor..].find(&pat)? + cursor;
            let r = field_u64(line, "reads", at)?;
            let w = field_u64(line, "writes", at)?;
            per_phase.push((r, w));
            cursor = at;
        }
        Some((strat, reads, writes, per_phase))
    }
}

/// Build the cost model's [`Workload`] from the repo's [`Params`] plus
/// the executor's thresholds.
pub fn workload_from_params(p: &Params, opts: &ExecOptions) -> Workload {
    Workload {
        parent_card: p.parent_card as f64,
        size_unit: p.size_unit as f64,
        use_factor: p.use_factor as f64,
        overlap_factor: p.overlap_factor as f64,
        num_top: p.num_top as f64,
        size_cache: p.size_cache as f64,
        buffer_pages: p.buffer_pages as f64,
        smart_threshold: opts.smart_threshold as f64,
        sort_work_mem: opts.sort_work_mem as f64,
    }
}

impl Engine {
    /// Run `sequence` cold (like [`Engine::run_sequence`]) under one
    /// trace, and report its per-phase I/O and wall time. When
    /// `params` is supplied, the analytical cost model prediction and
    /// its relative error are included.
    ///
    /// The I/O performed is identical to an unprofiled run. Fails with
    /// [`CorError::TraceActive`] before running anything if a trace is
    /// already active on this thread, because traces do not nest.
    pub fn explain(
        &self,
        strategy: Strategy,
        sequence: &[Query],
        params: Option<&Params>,
    ) -> Result<ExplainReport, CorError> {
        if tracetree::thread_active() {
            return Err(CorError::TraceActive);
        }
        let stats = self.pool().stats().clone();
        // Flush ahead of the baselines so build-time dirty pages drain
        // here and the measured window sees exactly what
        // [`Engine::run_sequence`] itself measures (its own cold-start
        // flush then finds nothing dirty).
        self.pool().flush_and_clear()?;
        // A consistent cut: another stream incrementing between this
        // snapshot's fields would otherwise skew the attribution window.
        let io_before = stats.snapshot_consistent();
        let trace = tracetree::start();
        let run: RunResult = self.run_sequence(strategy, sequence)?;
        let ledger = trace
            .finish()
            .expect("no trace was active, so this one collects");
        let total = stats.snapshot_consistent().since(&io_before);

        let (reads, writes, wall) = (
            ledger.reads_by_phase(),
            ledger.writes_by_phase(),
            ledger.wall_by_phase(),
        );
        let phases: Vec<PhaseRow> = Phase::ALL
            .iter()
            .map(|&phase| PhaseRow {
                phase,
                reads: reads[phase.index()],
                writes: writes[phase.index()],
                wall_ns: wall[phase.index()],
            })
            .collect();
        debug_assert_eq!(
            phases.iter().map(|r| r.io()).sum::<u64>(),
            total.total(),
            "phase attribution must be exhaustive"
        );

        let retrieves = run.retrieves;
        let avg_retrieve_io = if retrieves > 0 {
            (run.par_io + run.child_io) as f64 / retrieves as f64
        } else {
            0.0
        };
        let predicted = params.map(|p| {
            let w = workload_from_params(p, self.options());
            let g = match self.database() {
                Ok(db) => Geometry::measure(db, &w),
                Err(_) => Geometry::estimate(&w),
            };
            cost::predict(strategy, &w, &g)
        });
        let rel_error = predicted.and_then(|p| {
            (p.total() > 0.0 && retrieves > 0).then(|| (avg_retrieve_io - p.total()) / p.total())
        });

        Ok(ExplainReport {
            strategy,
            queries: run.queries,
            retrieves,
            values_returned: run.values_returned,
            total,
            phases,
            wall_ns: ledger.total_ns,
            avg_retrieve_io,
            predicted,
            rel_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate;
    use crate::seqgen::generate_sequence;

    fn tiny() -> Params {
        Params {
            parent_card: 200,
            num_top: 5,
            sequence_len: 20,
            buffer_pages: 16,
            size_cache: 20,
            pr_update: 0.0,
            ..Params::paper_default()
        }
    }

    #[test]
    fn explain_phase_sums_match_totals_for_every_strategy() {
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        for strategy in [
            Strategy::Dfs,
            Strategy::Bfs,
            Strategy::BfsNoDup,
            Strategy::DfsCache,
            Strategy::DfsClust,
            Strategy::Smart,
        ] {
            let engine = Engine::builder()
                .build_workload(&p, &generated, strategy)
                .unwrap();
            let report = engine.explain(strategy, &sequence, Some(&p)).unwrap();
            assert_eq!(
                report.phase_io_sum(),
                report.total.total(),
                "{strategy}: per-phase I/O must sum exactly to the total"
            );
            assert_eq!(
                report.phases.iter().map(|r| r.wall_ns).sum::<u64>(),
                report.wall_ns,
                "{strategy}: per-phase wall time must sum exactly to the total"
            );
            assert!(report.total.total() > 0, "{strategy} did I/O");
            assert!(report.avg_retrieve_io > 0.0, "{strategy}");
            let pred = report.predicted.expect("params given");
            assert!(pred.total().is_finite() && pred.total() > 0.0, "{strategy}");
            assert!(report.rel_error.unwrap().is_finite(), "{strategy}");
        }
    }

    #[test]
    fn explain_attributes_strategy_specific_phases() {
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);

        let io_of = |rep: &ExplainReport, phase: Phase| rep.phases[phase.index()].io();

        // DFS: pure index navigation, no temp/sort/cluster/cache.
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let dfs = engine.explain(Strategy::Dfs, &sequence, None).unwrap();
        assert!(io_of(&dfs, Phase::HeapFetch) > 0, "DFS probes leaves");
        assert_eq!(io_of(&dfs, Phase::TempBuild), 0);
        assert_eq!(io_of(&dfs, Phase::ClusterScan), 0);
        assert_eq!(io_of(&dfs, Phase::CacheProbe), 0);

        // BFS: builds a temp; join I/O lands in merge_join/sort or in the
        // probe phases depending on the plan — but never cluster/cache.
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Bfs)
            .unwrap();
        let bfs = engine.explain(Strategy::Bfs, &sequence, None).unwrap();
        assert!(io_of(&bfs, Phase::TempBuild) > 0, "BFS materializes temps");
        assert_eq!(io_of(&bfs, Phase::ClusterScan), 0);
        assert_eq!(io_of(&bfs, Phase::CacheProbe), 0);

        // DFSCLUST: everything is the cluster traversal.
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::DfsClust)
            .unwrap();
        let clust = engine.explain(Strategy::DfsClust, &sequence, None).unwrap();
        assert!(io_of(&clust, Phase::ClusterScan) > 0, "DFSCLUST scans");
        assert_eq!(io_of(&clust, Phase::TempBuild), 0);

        // DFSCACHE: cache probes and maintenance appear.
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::DfsCache)
            .unwrap();
        let cache = engine.explain(Strategy::DfsCache, &sequence, None).unwrap();
        assert!(
            io_of(&cache, Phase::CacheProbe) + io_of(&cache, Phase::CacheMaintain) > 0,
            "DFSCACHE touches the cache relation"
        );
    }

    #[test]
    fn jsonl_roundtrips_deterministic_fields() {
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let report = engine.explain(Strategy::Dfs, &sequence, Some(&p)).unwrap();
        let line = report.to_jsonl();
        assert!(line.starts_with("{\"schema_version\":1"));
        let (strat, reads, writes, per_phase) =
            ExplainReport::parse_replay_line(&line).expect("line parses");
        assert_eq!(strat, "DFS");
        assert_eq!(reads, report.total.reads);
        assert_eq!(writes, report.total.writes);
        assert_eq!(per_phase.len(), PHASE_COUNT);
        for (row, (r, w)) in report.phases.iter().zip(&per_phase) {
            assert_eq!(row.reads, *r, "{}", row.phase.name());
            assert_eq!(row.writes, *w, "{}", row.phase.name());
        }
        let text = report.render();
        assert!(text.contains("avg I/O per retrieve"), "{text}");
    }

    #[test]
    fn explain_refuses_to_nest_inside_a_trace() {
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        let outer = cor_obs::tracetree::start();
        let err = engine.explain(Strategy::Dfs, &sequence, None).unwrap_err();
        assert!(matches!(err, CorError::TraceActive), "{err}");
        assert!(outer.finish().is_some(), "the outer trace survives");
    }

    #[test]
    fn profiled_run_is_io_identical_to_unprofiled() {
        // The acceptance bar: enabling attribution must not change what
        // the engine reads or writes, only label it.
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        for strategy in [Strategy::Dfs, Strategy::Bfs, Strategy::DfsClust] {
            let plain = Engine::builder()
                .build_workload(&p, &generated, strategy)
                .unwrap();
            let a = plain.run_sequence(strategy, &sequence).unwrap();
            let profiled = Engine::builder()
                .build_workload(&p, &generated, strategy)
                .unwrap();
            let rep = profiled.explain(strategy, &sequence, None).unwrap();
            assert_eq!(rep.total.total(), a.total_io, "{strategy}");
            assert_eq!(rep.values_returned, a.values_returned, "{strategy}");
        }
    }
}
