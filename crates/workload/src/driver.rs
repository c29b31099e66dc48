//! What a measured sequence reports (paper Sec. 4, step \[3\]).
//!
//! "Run a sequence of queries (containing a mix of retrieves and updates,
//! satisfying some parameters) on the database and note the average I/O
//! traffic. This average I/O cost was the performance yardstick."
//!
//! The loop itself is [`Engine::run_sequence`](crate::Engine::run_sequence);
//! this module holds its result types: averages per query along with the
//! paper's `ParCost`/`ChildCost` split for the retrieves.

use complexobj::{CacheCounters, Strategy};

/// Aggregated result of one measured sequence.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The strategy measured.
    pub strategy: Strategy,
    /// Queries executed.
    pub queries: usize,
    /// Retrieves among them.
    pub retrieves: usize,
    /// Updates among them.
    pub updates: usize,
    /// Total page I/O over the sequence.
    pub total_io: u64,
    /// I/O charged to object access across retrieves (`ParCost` sum).
    pub par_io: u64,
    /// I/O charged to subobject fetching across retrieves (`ChildCost` sum).
    pub child_io: u64,
    /// I/O spent in updates (including cache invalidation).
    pub update_io: u64,
    /// Attribute values returned by the retrieves.
    pub values_returned: u64,
    /// Cache counters at the end of the run, if the database has a cache.
    pub cache: Option<CacheCounters>,
}

impl RunResult {
    /// The paper's yardstick: average I/O per query.
    pub fn avg_io_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.total_io as f64 / self.queries as f64
    }

    /// Average I/O per retrieve query.
    pub fn avg_retrieve_io(&self) -> f64 {
        if self.retrieves == 0 {
            return 0.0;
        }
        (self.par_io + self.child_io) as f64 / self.retrieves as f64
    }

    /// Average `ParCost` per retrieve (Fig. 5).
    pub fn avg_par_cost(&self) -> f64 {
        if self.retrieves == 0 {
            return 0.0;
        }
        self.par_io as f64 / self.retrieves as f64
    }

    /// Average `ChildCost` per retrieve (Fig. 5).
    pub fn avg_child_cost(&self) -> f64 {
        if self.retrieves == 0 {
            return 0.0;
        }
        self.child_io as f64 / self.retrieves as f64
    }

    /// Average I/O per update query.
    pub fn avg_update_io(&self) -> f64 {
        if self.updates == 0 {
            return 0.0;
        }
        self.update_io as f64 / self.updates as f64
    }
}

/// Per-query record from
/// [`Engine::run_sequence_trace`](crate::Engine::run_sequence_trace).
#[derive(Debug, Clone, Copy)]
pub struct QueryTrace {
    /// NumTop for retrieves, 0 for updates.
    pub num_top: u64,
    /// Total I/O of this query.
    pub io: u64,
    /// Was this an update?
    pub is_update: bool,
}

#[cfg(test)]
mod tests {
    use crate::dbgen::generate;
    use crate::engine::Engine;
    use crate::params::Params;
    use crate::seqgen::generate_sequence;
    use complexobj::{Query, Strategy};

    fn tiny(pr_update: f64, num_top: u64) -> Params {
        Params {
            parent_card: 300,
            num_top,
            pr_update,
            sequence_len: 30,
            size_cache: 30,
            buffer_pages: 16,
            ..Params::paper_default()
        }
    }

    #[test]
    fn pure_retrieve_run_accounts_io() {
        let p = tiny(0.0, 20);
        let g = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &g, Strategy::Dfs)
            .unwrap();
        let seq = generate_sequence(&p);
        let r = engine.run_sequence(Strategy::Dfs, &seq).unwrap();
        assert_eq!(r.retrieves, 30);
        assert_eq!(r.updates, 0);
        assert!(r.total_io > 0);
        assert_eq!(
            r.total_io,
            r.par_io + r.child_io,
            "retrieve-only: split must cover total"
        );
        // Each retrieve returns NumTop * SizeUnit values.
        assert_eq!(r.values_returned, 30 * 20 * 5);
        assert!(r.avg_io_per_query() > 0.0);
    }

    #[test]
    fn update_heavy_run_counts_update_io() {
        let p = tiny(1.0, 20);
        let g = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &g, Strategy::Bfs)
            .unwrap();
        let seq = generate_sequence(&p);
        let r = engine.run_sequence(Strategy::Bfs, &seq).unwrap();
        assert_eq!(r.updates, 30);
        assert!(r.update_io > 0);
        assert_eq!(r.values_returned, 0);
        assert!(r.avg_update_io() > 0.0);
    }

    #[test]
    fn cache_counters_surface_in_result() {
        let p = tiny(0.0, 10);
        let g = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &g, Strategy::DfsCache)
            .unwrap();
        let seq = generate_sequence(&p);
        let r = engine.run_sequence(Strategy::DfsCache, &seq).unwrap();
        let c = r.cache.expect("cache counters present");
        assert!(c.insertions > 0, "cold cache must be filled");
        assert!(c.hits + c.misses > 0);
    }

    #[test]
    fn trace_matches_aggregate() {
        let p = tiny(0.3, 10);
        let g = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &g, Strategy::DfsCache)
            .unwrap();
        let seq = generate_sequence(&p);
        let (r, trace) = engine.run_sequence_trace(Strategy::DfsCache, &seq).unwrap();
        assert_eq!(trace.len(), seq.len());
        let traced_io: u64 = trace.iter().map(|t| t.io).sum();
        assert_eq!(traced_io, r.total_io);
        assert_eq!(trace.iter().filter(|t| t.is_update).count(), r.updates);
        assert!(trace
            .iter()
            .filter(|t| !t.is_update)
            .all(|t| t.num_top == p.num_top));
    }

    #[test]
    fn mixed_sequence_varies_num_top() {
        let p = tiny(0.0, 10);
        let seq = crate::seqgen::generate_mixed_sequence(&p, &[1, 50, 200]);
        let mut seen = std::collections::HashSet::new();
        for q in &seq {
            if let Query::Retrieve(r) = q {
                seen.insert(r.num_top());
                assert!(r.hi < p.parent_card);
            }
        }
        assert_eq!(seen.len(), 3, "all NumTop values appear: {seen:?}");
    }

    #[test]
    fn runs_are_reproducible() {
        let p = tiny(0.3, 15);
        let g = generate(&p);
        let seq = generate_sequence(&p);
        let run = || {
            Engine::builder()
                .build_workload(&p, &g, Strategy::Bfs)
                .unwrap()
                .run_sequence(Strategy::Bfs, &seq)
                .unwrap()
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.total_io, r2.total_io);
        assert_eq!(r1.values_returned, r2.values_returned);
    }
}
