//! # cor-workload
//!
//! The experiment harness of the reproduction: paper-parameterized database
//! generation ([`dbgen`]), query-sequence generation ([`seqgen`]), the
//! [`Engine`] that owns execution — the measured loop included — and
//! persistence ([`engine`]; its result types are in [`driver`] and
//! [`concurrent`]), the experiment-point runner and parallel sweeps
//! ([`experiment`]), plain-text reporting ([`report`]), and the
//! engine-level observability layer ([`metrics`]).
//!
//! The defaults in [`Params::paper_default`] reproduce Sec. 4 of the paper;
//! [`Params::scaled`] shrinks everything proportionally for quick runs.
//!
//! ```
//! use complexobj::Strategy;
//! use cor_workload::{run_point, Params};
//!
//! let params = Params {
//!     parent_card: 200,
//!     num_top: 10,
//!     sequence_len: 8,
//!     size_cache: 20,
//!     buffer_pages: 16,
//!     ..Params::paper_default()
//! };
//! let result = run_point(&params, Strategy::Bfs).unwrap();
//! assert_eq!(result.retrieves, 8);
//! assert!(result.avg_io_per_query() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod concurrent;
pub mod dbgen;
pub mod driver;
pub mod engine;
pub mod experiment;
pub mod explain;
pub mod hierarchy;
pub mod matrix;
pub mod metrics;
pub mod params;
pub mod report;
pub mod seqgen;

pub use catalog::{EngineCatalog, SavedBackend, ENGINE_BLOB, ENGINE_CATALOG_VERSION};
pub use concurrent::{generate_stream_sequences, ConcurrentRunResult, LatencySummary};
pub use dbgen::{build_for_strategy, generate, make_pool, rng_for, GeneratedDb, SeedStream};
pub use driver::{QueryTrace, RunResult};
pub use engine::{Engine, EngineBuilder, EngineSpec};
pub use experiment::{default_threads, parallel_map, run_point};
pub use explain::{workload_from_params, ExplainReport, PhaseRow};
pub use hierarchy::{
    generate_hierarchy_specs, snapshot_hierarchy, total_hierarchy_io, HierarchyParams,
};
pub use matrix::{generate_matrix, run_matrix_point, MatrixRunResult, MatrixSpec, MatrixSystem};
pub use metrics::{
    build_report, EngineMetrics, MetricsReport, METRICS_SCHEMA_VERSION, REQUIRED_METRICS,
};
pub use params::Params;
pub use report::{fnum, format_ascii_plot, format_region_map, format_table, write_csv};
pub use seqgen::{
    generate_mixed_sequence, generate_sequence, generate_sequence_with, random_retrieve,
    random_update,
};
