//! # cor — Complex Object Representation, reproduced
//!
//! Umbrella crate for the reproduction of **Jhingran & Stonebraker,
//! "Alternatives in Complex Object Representation: A Performance
//! Perspective"** (UCB/ERL M89/18, ICDE 1990).
//!
//! Re-exports the workspace crates under one roof and hosts the
//! cross-crate integration tests (`tests/`) and runnable examples
//! (`examples/`). See `README.md` for the tour, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! Layering, bottom up:
//!
//! 1. [`pagestore`] — 2 KB slotted pages, disk managers, the 100-page LRU
//!    buffer pool, and the I/O counters that are the paper's yardstick;
//! 2. [`relational`] — OIDs, values, schemas, tuples, predicates;
//! 3. [`access`] — heap files, B-trees, static ISAM indexes, static hash
//!    files, external sort, merge join / iterative substitution;
//! 4. [`complexobj`] — the paper's contribution: the representation
//!    matrix, units, the clustered representation, the I-lock-invalidated
//!    unit cache, and the DFS / BFS / BFSNODUP / DFSCACHE / DFSCLUST /
//!    SMART strategies;
//! 5. [`workload`] — the parameterized generator, sequence driver and
//!    experiment sweeps behind the figure reproductions in `cor-bench`.
//!
//! Orthogonal to the stack, [`obs`] is the zero-dependency observability
//! layer (counters, flight recorder, phase ledger)
//! that the pool's telemetry, `Engine::explain` and `crashtest` read —
//! see `docs/observability.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use complexobj;
pub use cor_access as access;
pub use cor_obs as obs;
pub use cor_pagestore as pagestore;
pub use cor_relational as relational;
pub use cor_workload as workload;

pub use complexobj::ExecOptions;
pub use cor_pagestore::{BufferPool, BufferPoolBuilder, ReplacementPolicy};
pub use cor_workload::{Engine, EngineBuilder, MetricsReport};
