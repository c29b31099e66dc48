//! The `Engine` facade — one session object over the paper's machinery.
//!
//! Each representation has its own low-level dispatch
//! (`strategies::execute_retrieve`, `multilevel::execute_multilevel`,
//! `procedural::execute_proc_retrieve`) over a pool + database + cache
//! someone has to assemble. The engine owns that assembly behind a
//! builder and exposes uniform `retrieve` / `update` / `run_sequence`
//! calls, plus the concurrent driver for multi-stream serving.
//!
//! Construction is one builder with six terminals over one
//! [`EngineSpec`]: [`build`](EngineBuilder::build) (in memory) and its
//! composition [`build_workload`](EngineBuilder::build_workload) (a
//! workload point's geometry, cache and representation), and the durable
//! lifecycle [`create`](EngineBuilder::create) /
//! [`open`](EngineBuilder::open) with their explicit-store forms
//! [`create_on`](EngineBuilder::create_on) /
//! [`open_on`](EngineBuilder::open_on). Every terminal assembles its
//! pool and its `Engine` through the same two private functions, so
//! every builder setting reaches every terminal:
//!
//! ```
//! use cor_workload::{Engine, EngineSpec};
//! use complexobj::{DatabaseSpec, RetAttr, RetrieveQuery, Strategy};
//! use cor_pagestore::ReplacementPolicy;
//!
//! // 4 objects over 6 shared subobjects
//! let spec = EngineSpec::Standard(DatabaseSpec::tiny());
//! let engine = Engine::builder()
//!     .pool_pages(100)
//!     .shards(8)
//!     .policy(ReplacementPolicy::Sieve)
//!     .build(&spec)
//!     .unwrap();
//! let q = RetrieveQuery { lo: 0, hi: 3, attr: RetAttr::Ret1 };
//! let out = engine.retrieve(Strategy::Dfs, &q).unwrap();
//! assert_eq!(out.values.len(), 8);
//! ```

use crate::catalog::{EngineCatalog, SavedBackend, ENGINE_BLOB};
use crate::concurrent::{ConcurrentRunResult, LatencySummary};
use crate::dbgen::{cluster_assignment, strategy_cache, GeneratedDb};
use crate::driver::{QueryTrace, RunResult};
use crate::metrics::{build_report, duration_ns, EngineMetrics, MetricsReport};
use crate::params::Params;
use complexobj::multilevel::{execute_multilevel, MultiDotQuery};
use complexobj::procedural::{
    apply_proc_update, execute_proc_retrieve, ProcCaching, ProcDatabase, ProcDatabaseSpec,
};
use complexobj::strategies::execute_retrieve;
use complexobj::{
    apply_update, CacheConfig, CacheCounters, ClusterAssignment, CorDatabase, CorError,
    DatabaseSpec, ExecOptions, Query, RetrieveQuery, Strategy, StrategyOutput, UpdateQuery,
};
use cor_access::{Catalog, CatalogError};
use cor_obs::{flight, Histogram};
use cor_pagestore::{
    BufferPool, DiskManager, FileDisk, IoDelta, ReplacementPolicy, DEFAULT_POOL_PAGES,
};
use cor_wal::{CheckpointInfo, FileLogStore, LogStore, Wal, WalConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pages in the throwaway pool used to read the engine catalog before the
/// real pool's geometry is known. Reads only; dropped after decoding.
const BOOTSTRAP_POOL_PAGES: usize = 16;

/// What [`EngineBuilder::build`] and [`EngineBuilder::create`] populate an
/// engine with. On the durable side `create` is the only place a spec is
/// needed: after that the persistent catalog — not the caller — records
/// which backend the store holds, and [`EngineBuilder::open`]
/// reconstructs it with no spec at all.
#[derive(Debug, Clone)]
pub enum EngineSpec {
    /// Standard OID representation (attach a cache via
    /// [`EngineBuilder::cache`] for DFSCACHE / SMART).
    Standard(DatabaseSpec),
    /// Clustered OID representation (DFSCLUST).
    Clustered(DatabaseSpec, ClusterAssignment),
    /// Multi-level hierarchy, level 0 first. On a store
    /// ([`create`](EngineBuilder::create)) the levels share the store's
    /// one buffer pool; in memory ([`build`](EngineBuilder::build)) each
    /// level gets its own pool with the builder's settings — its own
    /// "INGRES instance", the arrangement `results/multilevel.txt` pins.
    Levels(Vec<DatabaseSpec>),
    /// Procedural representation with the given caching mode.
    Procedural(ProcDatabaseSpec, ProcCaching),
}

impl EngineSpec {
    /// The representation a workload point needs under `strategy`:
    /// clustered for DFSCLUST — a random assignment drawn from the
    /// params' own [`SeedStream::Cluster`](crate::SeedStream) stream —
    /// and standard otherwise.
    pub fn for_strategy(params: &Params, generated: &GeneratedDb, strategy: Strategy) -> Self {
        let spec = generated.spec.clone();
        if strategy.needs_cluster() {
            EngineSpec::Clustered(spec, cluster_assignment(params, generated))
        } else {
            EngineSpec::Standard(spec)
        }
    }
}

/// The persistent-catalog half of a lifecycle-built engine: the page-0
/// catalog handle plus the pool's construction settings, recorded
/// unchanged in every snapshot.
struct CatalogState {
    catalog: Catalog,
    pool_pages: usize,
    shards: usize,
    policy: ReplacementPolicy,
}

/// Map a bootstrap-read catalog error: a store whose page 0 does not
/// parse as a catalog (or has no `"engine"` blob) was not created by the
/// lifecycle API; real storage failures pass through.
fn catalog_probe_err(e: CatalogError) -> CorError {
    match e {
        CatalogError::Access(a) => CorError::Access(a),
        _ => CorError::CatalogMissing,
    }
}

/// What the engine is serving queries against.
enum Backend {
    /// A single OID-representation database (standard or clustered,
    /// optionally cache-attached).
    Oid(CorDatabase),
    /// A multi-level hierarchy chain (level 0 first).
    Levels(Vec<CorDatabase>),
    /// A procedural-representation database.
    Proc(ProcDatabase),
}

/// A query-serving session: pool + database + optional cache behind one
/// object. Build with [`Engine::builder`].
pub struct Engine {
    backend: Backend,
    opts: ExecOptions,
    metrics: Option<Arc<EngineMetrics>>,
    wal: Option<Arc<Wal>>,
    catalog: Option<CatalogState>,
}

/// Configures and builds an [`Engine`].
#[derive(Clone)]
pub struct EngineBuilder {
    pool_pages: usize,
    shards: usize,
    policy: ReplacementPolicy,
    cache: Option<CacheConfig>,
    opts: ExecOptions,
    metrics: bool,
    disk: Option<Arc<dyn DiskManager>>,
    wal: Option<Arc<Wal>>,
    wal_config: WalConfig,
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("pool_pages", &self.pool_pages)
            .field("shards", &self.shards)
            .field("policy", &self.policy)
            .field("cache", &self.cache)
            .field("opts", &self.opts)
            .field("metrics", &self.metrics)
            .field("disk", &self.disk.is_some())
            .field("wal", &self.wal.is_some())
            .field("wal_config", &self.wal_config)
            .finish()
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            pool_pages: DEFAULT_POOL_PAGES,
            shards: 1,
            policy: ReplacementPolicy::default(),
            cache: None,
            opts: ExecOptions::default(),
            metrics: false,
            disk: None,
            wal: None,
            wal_config: WalConfig::default(),
        }
    }
}

impl EngineBuilder {
    /// Buffer pool capacity in pages (default: the paper's 100).
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Lock-striped shards in the pool (default 1 — the paper's single
    /// global buffer, with exact I/O counts).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replacement policy of the pool this builder constructs (default
    /// LRU). This is the only setter; the engine catalog's policy byte
    /// is the only record, and it wins on [`open`](Self::open).
    pub fn policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a unit-value cache (DFSCACHE / SMART need one).
    pub fn cache(mut self, cfg: CacheConfig) -> Self {
        self.cache = Some(cfg);
        self
    }

    /// Per-query execution options used by every query this engine runs
    /// (replaceable later with [`Engine::with_options`]).
    pub fn exec_options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Back the pool with an explicit page store instead of the default
    /// private [`MemDisk`](cor_pagestore::MemDisk) — a
    /// [`FileDisk`], a crash-test
    /// [`FaultyDisk`](cor_pagestore::FaultyDisk), or a shared handle the
    /// caller keeps for post-crash inspection.
    pub fn disk(mut self, disk: Arc<dyn DiskManager>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Attach a write-ahead log: every page mutation is logged before the
    /// page can reach the disk, and [`Engine::checkpoint`] becomes
    /// available. [`IoStats`](cor_pagestore::IoStats) totals — the
    /// paper's cost metric — are identical with or without a WAL; log
    /// I/O is accounted by the WAL's own counters.
    pub fn wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// WAL configuration used when the lifecycle API
    /// ([`create`](Self::create) / [`open`](Self::open)) constructs the
    /// log itself (default: fsync always, 1 MiB segments). Ignored when
    /// an explicit [`wal`](Self::wal) handle is attached.
    pub fn wal_config(mut self, config: WalConfig) -> Self {
        self.wal_config = config;
        self
    }

    /// Enable the observability layer: per-shard pool telemetry, per-call
    /// query and I/O counters and streaming latency histograms, readable via
    /// [`Engine::metrics`]. Disabled by default; when disabled no counters
    /// are allocated and the hot paths skip instrumentation entirely.
    /// [`IoStats`](cor_pagestore::IoStats) totals — the paper's cost
    /// metric — are identical either way.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// The one pool assembly: every terminal's pool carries every
    /// builder setting.
    fn make_pool(&self) -> Arc<BufferPool> {
        let mut b = BufferPool::builder()
            .capacity(self.pool_pages)
            .shards(self.shards)
            .policy(self.policy)
            .telemetry(self.metrics);
        if let Some(disk) = &self.disk {
            b = b.disk(Box::new(disk.clone()));
        }
        if let Some(wal) = &self.wal {
            b = b.wal(wal.clone());
        }
        Arc::new(b.build())
    }

    /// The one `Engine` assembly. `catalog` is the page-0 handle of a
    /// lifecycle-built engine; the pool settings saved beside it are the
    /// builder's, which `open_on` has by then replaced with the store's.
    fn into_engine(self, backend: Backend, catalog: Option<Catalog>) -> Engine {
        Engine {
            backend,
            opts: self.opts,
            metrics: self.metrics.then(|| Arc::new(EngineMetrics::new())),
            wal: self.wal,
            catalog: catalog.map(|catalog| CatalogState {
                catalog,
                pool_pages: self.pool_pages,
                shards: self.shards,
                policy: self.policy,
            }),
        }
    }

    /// Build the spec's backend. A store is one file, so the lifecycle
    /// terminals pass its one `shared` pool and every database — each
    /// hierarchy level included — lives on it; in memory (`None`) each
    /// database gets a pool of its own from [`make_pool`](Self::make_pool).
    fn backend_for_spec(
        &self,
        shared: Option<&Arc<BufferPool>>,
        spec: &EngineSpec,
    ) -> Result<Backend, CorError> {
        let pool = || shared.map_or_else(|| self.make_pool(), Arc::clone);
        Ok(match spec {
            EngineSpec::Standard(s) => {
                Backend::Oid(CorDatabase::build_standard(pool(), s, self.cache)?)
            }
            EngineSpec::Clustered(s, assignment) => {
                Backend::Oid(CorDatabase::build_clustered(pool(), s, assignment)?)
            }
            EngineSpec::Levels(specs) => {
                assert!(!specs.is_empty(), "at least one level");
                Backend::Levels(
                    specs
                        .iter()
                        .map(|s| CorDatabase::build_standard(pool(), s, self.cache))
                        .collect::<Result<_, _>>()?,
                )
            }
            EngineSpec::Procedural(s, caching) => {
                Backend::Proc(ProcDatabase::build(pool(), s, *caching)?)
            }
        })
    }

    /// Build an in-memory engine over `spec` — the only in-memory
    /// terminal. The pool sits on the builder's [`disk`](Self::disk)
    /// (default: a private `MemDisk`) and logs to its [`wal`](Self::wal)
    /// when one is attached; nothing is written to a persistent catalog,
    /// so the engine cannot be reopened (use [`create`](Self::create)
    /// for that).
    pub fn build(self, spec: &EngineSpec) -> Result<Engine, CorError> {
        let backend = self.backend_for_spec(None, spec)?;
        Ok(self.into_engine(backend, None))
    }

    /// [`build`](Self::build) the engine a workload point needs under
    /// `strategy`: the params' pool geometry, the strategy's cache
    /// (DFSCACHE / SMART) and the strategy's representation
    /// ([`EngineSpec::for_strategy`]). Every other builder setting
    /// applies as set.
    pub fn build_workload(
        mut self,
        params: &Params,
        generated: &GeneratedDb,
        strategy: Strategy,
    ) -> Result<Engine, CorError> {
        self.pool_pages = params.buffer_pages;
        self.shards = params.shards;
        self.cache = strategy_cache(params, strategy);
        self.build(&EngineSpec::for_strategy(params, generated, strategy))
    }

    /// Create a durable engine in directory `path` (page store
    /// `path/db.pages`, log segments under `path/wal/`), populated from
    /// `spec`. The persistent catalog is written before this returns, so
    /// the store is reopenable — via [`open`](Self::open), spec-free —
    /// from any point after `create`, crash included.
    pub fn create(self, path: &Path, spec: &EngineSpec) -> Result<Engine, CorError> {
        let (disk, store) = Self::open_files(path)?;
        self.create_on(disk, store, spec)
    }

    /// Reopen the engine stored in directory `path`: replay the log,
    /// read the recovered catalog, and reconstruct the backend it
    /// records. No spec: the catalog is the source of truth.
    pub fn open(self, path: &Path) -> Result<Engine, CorError> {
        let (disk, store) = Self::open_files(path)?;
        self.open_on(disk, store)
    }

    #[allow(clippy::type_complexity)]
    fn open_files(path: &Path) -> Result<(Arc<dyn DiskManager>, Arc<dyn LogStore>), CorError> {
        std::fs::create_dir_all(path)
            .map_err(|e| CorError::Durability(format!("creating {}: {e}", path.display())))?;
        let disk = FileDisk::open(&path.join("db.pages"))
            .map_err(|e| CorError::Durability(format!("opening page store: {e}")))?;
        let store = FileLogStore::open(&path.join("wal"))
            .map_err(|e| CorError::Durability(format!("opening log store: {e}")))?;
        Ok((Arc::new(disk), Arc::new(store)))
    }

    /// [`create`](Self::create) over explicit disk and log stores —
    /// the crash-test entry point ([`MemDisk`](cor_pagestore::MemDisk),
    /// [`FaultyDisk`](cor_pagestore::FaultyDisk),
    /// [`MemLogStore`](cor_wal::MemLogStore)). Both must be empty.
    pub fn create_on(
        mut self,
        disk: Arc<dyn DiskManager>,
        store: Arc<dyn LogStore>,
        spec: &EngineSpec,
    ) -> Result<Engine, CorError> {
        if disk.num_pages() != 0 {
            return Err(CorError::Durability(format!(
                "create requires a fresh store, found {} existing pages; \
                 reopen existing stores with EngineBuilder::open",
                disk.num_pages()
            )));
        }
        self.disk = Some(disk);
        self.wal = Some(Arc::new(Wal::new(store, self.wal_config)));
        let pool = self.make_pool();
        // Page 0, allocated before any relation, holds the catalog.
        let catalog = Catalog::create(Arc::clone(&pool))
            .map_err(|e| CorError::Durability(format!("creating catalog: {e}")))?;
        let backend = self.backend_for_spec(Some(&pool), spec)?;
        let pool_pages = self.pool_pages;
        let engine = self.into_engine(backend, Some(catalog));
        engine.save_catalog(false)?;
        flight::record(flight::FlightKind::EngineOpen, pool_pages as u64, 1, 0);
        Ok(engine)
    }

    /// [`open`](Self::open) over explicit disk and log stores.
    ///
    /// Runs crash recovery, then reads the engine catalog through a
    /// throwaway bootstrap pool (the real pool's settings are *in* the
    /// catalog), rebuilds the pool and backend, and marks the store
    /// in-use. Typed failures: [`CorError::CatalogMissing`] when the
    /// store was not created by this API, [`CorError::CatalogVersion`]
    /// when it was written by an incompatible layout.
    ///
    /// The builder's pool geometry, policy, queue depth and
    /// `exec_options` are ignored — the catalog's recorded values win, so
    /// every reopen serves queries with the same buffer economics and
    /// options the store was created with. Only `metrics` and
    /// `wal_config` are taken from the builder; change the per-query
    /// options of a reopened engine with [`Engine::with_options`].
    pub fn open_on(
        mut self,
        disk: Arc<dyn DiskManager>,
        store: Arc<dyn LogStore>,
    ) -> Result<Engine, CorError> {
        cor_wal::recover(disk.as_ref(), store.as_ref())
            .map_err(|e| CorError::Durability(format!("recovery failed: {e}")))?;
        if disk.num_pages() == 0 {
            return Err(CorError::CatalogMissing);
        }
        let saved = {
            let boot = Arc::new(
                BufferPool::builder()
                    .capacity(BOOTSTRAP_POOL_PAGES)
                    .disk(Box::new(Arc::clone(&disk)))
                    .build(),
            );
            let cat = Catalog::open(boot).map_err(catalog_probe_err)?;
            let bytes = cat.get_blob(ENGINE_BLOB).map_err(catalog_probe_err)?;
            EngineCatalog::decode(&bytes)?
        };
        let wal = Wal::attach(store, self.wal_config)
            .map_err(|e| CorError::Durability(format!("attaching WAL: {e}")))?;
        self.pool_pages = saved.pool_pages;
        self.shards = saved.shards;
        self.policy = saved.policy;
        self.opts = saved.opts;
        self.disk = Some(disk);
        self.wal = Some(Arc::new(wal));
        let pool = self.make_pool();
        if saved.clean_shutdown {
            // The free list is trustworthy only when nothing ran after it
            // was saved. After a crash it is discarded: a page freed (or
            // un-freed) post-snapshot could otherwise be handed out while
            // live data sits on it. Leaked pages are bounded and inert.
            for &pid in &saved.free_pages {
                pool.free_page(pid)?;
            }
        }
        let catalog = Catalog::open(Arc::clone(&pool))
            .map_err(|e| CorError::Durability(format!("reopening catalog: {e}")))?;
        let backend = match &saved.backend {
            SavedBackend::Oid(s) => Backend::Oid(CorDatabase::open_state(Arc::clone(&pool), s)?),
            SavedBackend::Levels(ls) => Backend::Levels(
                ls.iter()
                    .map(|s| CorDatabase::open_state(Arc::clone(&pool), s))
                    .collect::<Result<_, _>>()?,
            ),
            SavedBackend::Proc(s) => Backend::Proc(ProcDatabase::open_state(Arc::clone(&pool), s)?),
        };
        let engine = self.into_engine(backend, Some(catalog));
        // Mark in-use (clears clean_shutdown) and persist the reconciled
        // cache directories in one stroke.
        engine.save_catalog(false)?;
        flight::record(
            flight::FlightKind::EngineOpen,
            saved.pool_pages as u64,
            0,
            0,
        );
        Ok(engine)
    }
}

impl Engine {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Replace the engine's per-query execution options. Everything in
    /// [`ExecOptions`] is read per query, so the change is complete; what
    /// is fixed when the pool is built (geometry, policy, queue depth) is
    /// not in it.
    pub fn with_options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The execution options every query runs with.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// The underlying OID database (level 0 for hierarchies).
    ///
    /// Errors on procedural engines, which have no `CorDatabase`.
    pub fn database(&self) -> Result<&CorDatabase, CorError> {
        match &self.backend {
            Backend::Oid(db) => Ok(db),
            Backend::Levels(levels) => Ok(&levels[0]),
            Backend::Proc(_) => Err(CorError::WrongRepresentation("OID representation")),
        }
    }

    /// Every level's database, level 0 first (a single OID database is a
    /// one-level hierarchy; empty for procedural engines).
    pub fn levels(&self) -> &[CorDatabase] {
        match &self.backend {
            Backend::Oid(db) => std::slice::from_ref(db),
            Backend::Levels(levels) => levels,
            Backend::Proc(_) => &[],
        }
    }

    /// The buffer pool (level 0's for hierarchies).
    pub fn pool(&self) -> &Arc<BufferPool> {
        match &self.backend {
            Backend::Oid(db) => db.pool(),
            Backend::Levels(levels) => levels[0].pool(),
            Backend::Proc(db) => db.pool(),
        }
    }

    /// Re-snapshot the engine into its persistent catalog: backend file
    /// roots, OID allocators, cache directories, the pool's creation
    /// settings, the current options, and the free-page list, with
    /// `clean` as the shutdown flag.
    /// Errors on engines not built by the lifecycle API.
    fn save_catalog(&self, clean: bool) -> Result<(), CorError> {
        let cs = self.catalog.as_ref().ok_or_else(|| {
            CorError::Durability(
                "engine has no persistent catalog (not built by create/open)".into(),
            )
        })?;
        let backend = match &self.backend {
            Backend::Oid(db) => SavedBackend::Oid(db.save_state()),
            Backend::Levels(levels) => {
                SavedBackend::Levels(levels.iter().map(CorDatabase::save_state).collect())
            }
            Backend::Proc(db) => SavedBackend::Proc(db.save_state()),
        };
        let cat = EngineCatalog {
            clean_shutdown: clean,
            pool_pages: cs.pool_pages,
            shards: cs.shards,
            policy: cs.policy,
            opts: self.opts,
            free_pages: self.pool().free_page_ids(),
            backend,
        };
        cs.catalog
            .save_blob(ENGINE_BLOB, &cat.encode())
            .map_err(|e| CorError::Durability(format!("saving engine catalog: {e}")))
    }

    /// Shut the engine down cleanly: persist the catalog with the
    /// `clean_shutdown` flag set, flush every dirty page, and checkpoint
    /// so the next [`EngineBuilder::open`] replays (almost) nothing and
    /// may trust the saved free-page list. Consumes the engine.
    pub fn close(self) -> Result<(), CorError> {
        let wal = self
            .wal
            .as_ref()
            .ok_or_else(|| CorError::Durability("close needs a WAL attached".into()))?
            .clone();
        self.save_catalog(true)?;
        self.pool().flush_all()?;
        wal.checkpoint(|| self.pool().dirty_page_table())
            .map_err(|e| CorError::Durability(format!("close checkpoint failed: {e}")))?;
        flight::record(flight::FlightKind::EngineClose, 0, 0, 0);
        Ok(())
    }

    /// The attached write-ahead log, if this engine runs durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Take a checkpoint: log the pool's dirty-page table, fsync, and
    /// garbage-collect log segments below the new redo horizon. Bounds
    /// both recovery time and log size. Errors on engines without a WAL.
    ///
    /// Safe against queries running concurrently on other threads: the
    /// WAL captures its begin LSN before pulling the dirty-page table
    /// (the closure below), so a page write logged while the table is
    /// being assembled stays above the recorded redo horizon even when
    /// the table misses it.
    /// Lifecycle-built engines re-save their persistent catalog first, so
    /// a post-checkpoint crash recovers allocator counters and cache
    /// directories no staler than this checkpoint.
    pub fn checkpoint(&self) -> Result<CheckpointInfo, CorError> {
        let wal = self
            .wal
            .as_ref()
            .ok_or_else(|| CorError::Durability("checkpoint needs a WAL attached".into()))?;
        if self.catalog.is_some() {
            self.save_catalog(false)?;
        }
        wal.checkpoint(|| self.pool().dirty_page_table())
            .map_err(|e| CorError::Durability(format!("checkpoint failed: {e}")))
    }

    /// A metered call's start, if this engine records metrics: the
    /// handle, the I/O counters at entry, and the wall clock at entry.
    fn metrics_start(&self) -> Option<(&Arc<EngineMetrics>, cor_pagestore::IoSnapshot, Instant)> {
        self.metrics
            .as_ref()
            .map(|m| (m, self.pool().stats().snapshot(), Instant::now()))
    }

    /// How one retrieve runs against this engine's backend — with
    /// [`exec_update`](Self::exec_update), the only place a query is
    /// dispatched on the representation. Hierarchies serve plain
    /// retrieves from level 0.
    #[inline]
    fn exec_retrieve(
        &self,
        strategy: Strategy,
        query: &RetrieveQuery,
    ) -> Result<StrategyOutput, CorError> {
        match &self.backend {
            Backend::Oid(db) => execute_retrieve(db, strategy, query, &self.opts),
            Backend::Levels(levels) => execute_retrieve(&levels[0], strategy, query, &self.opts),
            Backend::Proc(db) => execute_proc_retrieve(db, query),
        }
    }

    /// How one update runs against this engine's backend. Cache
    /// maintenance (I-lock invalidation) applies whenever the database
    /// carries a cache — Sec. 3.2.
    #[inline]
    fn exec_update(&self, update: &UpdateQuery) -> Result<IoDelta, CorError> {
        match &self.backend {
            Backend::Oid(db) => apply_update(db, update, db.has_cache()),
            Backend::Levels(levels) => apply_update(&levels[0], update, levels[0].has_cache()),
            Backend::Proc(db) => apply_proc_update(db, update),
        }
    }

    /// Counters of whichever cache the backend carries (procedural
    /// engines always keep a set, all zero when nothing is cached).
    fn cache_counters(&self) -> Option<CacheCounters> {
        match &self.backend {
            Backend::Oid(db) => db.cache_counters(),
            Backend::Levels(levels) => levels[0].cache_counters(),
            Backend::Proc(db) => Some(db.cache_counters()),
        }
    }

    /// Run one retrieve. On OID engines this dispatches to the strategy;
    /// on procedural engines the caching mode is a property of the build,
    /// so `strategy` is ignored.
    pub fn retrieve(
        &self,
        strategy: Strategy,
        query: &RetrieveQuery,
    ) -> Result<StrategyOutput, CorError> {
        let obs = self.metrics_start();
        let out = self.exec_retrieve(strategy, query)?;
        if let Some((m, before, t0)) = obs {
            let delta = self.pool().stats().snapshot().since(&before);
            m.record_retrieve(strategy, delta, t0.elapsed());
        }
        Ok(out)
    }

    /// Run one multi-dot retrieve across the hierarchy (single-database
    /// engines behave as one-level hierarchies). Errors on procedural
    /// engines, which have no levels.
    pub fn retrieve_multilevel(
        &self,
        strategy: Strategy,
        query: &MultiDotQuery,
    ) -> Result<StrategyOutput, CorError> {
        let levels = self.levels();
        if levels.is_empty() {
            return Err(CorError::WrongRepresentation("OID representation"));
        }
        execute_multilevel(levels, strategy, query, &self.opts)
    }

    /// Apply one update (with whatever cache maintenance the build
    /// requires), returning the I/O spent.
    pub fn update(&self, update: &UpdateQuery) -> Result<IoDelta, CorError> {
        let obs = self.metrics.as_ref().map(|m| (m, Instant::now()));
        let delta = self.exec_update(update)?;
        if let Some((m, t0)) = obs {
            m.record_update(delta, t0.elapsed());
        }
        Ok(delta)
    }

    /// The measured loop (paper Sec. 4, step \[3\]): start cold — empty
    /// buffer; the cache, if any, warms during the sequence — run every
    /// query, and tally the paper's `ParCost`/`ChildCost` split beside the
    /// total. `observe` sees each query as it completes. With metrics on
    /// the whole call counts as one `sequence` call; the queries inside
    /// count as none.
    fn run_observed(
        &self,
        strategy: Strategy,
        sequence: &[Query],
        mut observe: impl FnMut(QueryTrace),
    ) -> Result<RunResult, CorError> {
        let obs = self.metrics_start();
        self.pool().flush_and_clear()?;
        let stats = self.pool().stats();
        let start = stats.snapshot();
        let mut result = RunResult {
            strategy,
            queries: sequence.len(),
            retrieves: 0,
            updates: 0,
            total_io: 0,
            par_io: 0,
            child_io: 0,
            update_io: 0,
            values_returned: 0,
            cache: None,
        };
        for q in sequence {
            match q {
                Query::Retrieve(r) => {
                    let out = self.exec_retrieve(strategy, r)?;
                    result.retrieves += 1;
                    result.par_io += out.par_io.total();
                    result.child_io += out.child_io.total();
                    result.values_returned += out.values.len() as u64;
                    observe(QueryTrace {
                        num_top: r.num_top(),
                        io: out.total_io(),
                        is_update: false,
                    });
                }
                Query::Update(u) => {
                    let delta = self.exec_update(u)?;
                    result.updates += 1;
                    result.update_io += delta.total();
                    observe(QueryTrace {
                        num_top: 0,
                        io: delta.total(),
                        is_update: true,
                    });
                }
            }
        }
        result.total_io = stats.snapshot().since(&start).total();
        result.cache = self.cache_counters();
        if let Some((m, before, t0)) = obs {
            let delta = stats.snapshot().since(&before);
            m.record_sequence(strategy, delta, t0.elapsed());
        }
        Ok(result)
    }

    /// Run a measured query sequence from a cold buffer — the paper's
    /// experiment step: "run a sequence of queries (containing a mix of
    /// retrieves and updates, satisfying some parameters) on the database
    /// and note the average I/O traffic".
    pub fn run_sequence(
        &self,
        strategy: Strategy,
        sequence: &[Query],
    ) -> Result<RunResult, CorError> {
        self.run_observed(strategy, sequence, |_| {})
    }

    /// [`Engine::run_sequence`] with one trace entry per query, for
    /// experiments that bucket costs by per-query NumTop (the SMART
    /// query-mix study).
    pub fn run_sequence_trace(
        &self,
        strategy: Strategy,
        sequence: &[Query],
    ) -> Result<(RunResult, Vec<QueryTrace>), CorError> {
        let mut trace = Vec::with_capacity(sequence.len());
        let result = self.run_observed(strategy, sequence, |t| trace.push(t))?;
        Ok((result, trace))
    }

    /// Run each of `sequences` as its own stream on a scoped thread over
    /// this engine, starting from a cold buffer, and report throughput and
    /// latency along with the aggregate average I/O. With one stream the
    /// queries run in [`run_sequence`](Self::run_sequence)'s order and the
    /// I/O count equals its count; with several the total is still exact
    /// (the pool's counters are atomic) but depends on the interleaving.
    ///
    /// Retrieves are read-only and freely concurrent. Updates mutate
    /// subobjects in place; with updates in several streams the
    /// *interleaving* of updates and retrieves is nondeterministic, so
    /// returned values (and I/O) can differ run to run — exactly the
    /// behaviour a multi-client server exhibits.
    pub fn run_concurrent(
        &self,
        strategy: Strategy,
        sequences: &[Vec<Query>],
    ) -> Result<ConcurrentRunResult, CorError> {
        assert!(!sequences.is_empty(), "at least one stream");
        self.pool().flush_and_clear()?;
        let stats = self.pool().stats();
        let start_snap = stats.snapshot();
        let started = Instant::now();

        let latency_hist = Histogram::new();

        // Per stream: (retrieves, values returned).
        let tallies: Vec<Result<(usize, u64), CorError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sequences
                .iter()
                .map(|sequence| {
                    let latency_hist = &latency_hist;
                    scope.spawn(move || {
                        let (mut retrieves, mut values_returned) = (0usize, 0u64);
                        for q in sequence {
                            let t0 = Instant::now();
                            match q {
                                Query::Retrieve(r) => {
                                    let out = self.exec_retrieve(strategy, r)?;
                                    retrieves += 1;
                                    values_returned += out.values.len() as u64;
                                }
                                Query::Update(u) => {
                                    self.exec_update(u)?;
                                }
                            }
                            latency_hist.record(duration_ns(t0.elapsed()));
                        }
                        Ok((retrieves, values_returned))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream thread panicked"))
                .collect()
        });

        let elapsed = started.elapsed();
        let mut result = ConcurrentRunResult {
            strategy,
            streams: sequences.len(),
            queries: sequences.iter().map(Vec::len).sum(),
            retrieves: 0,
            updates: 0,
            total_io: stats.snapshot().since(&start_snap).total(),
            values_returned: 0,
            elapsed,
            latency: LatencySummary::from_histogram(&latency_hist.snapshot()),
        };
        for tally in tallies {
            let (retrieves, values_returned) = tally?;
            result.retrieves += retrieves;
            result.values_returned += values_returned;
        }
        result.updates = result.queries - result.retrieves;
        Ok(result)
    }

    /// A complete observability report: engine counters and histograms,
    /// per-shard pool telemetry (when the pool was built with telemetry),
    /// and cache counters (when a cache is attached). `None` unless the
    /// engine was built with metrics enabled.
    pub fn metrics(&self) -> Option<MetricsReport> {
        let m = self.metrics.as_ref()?;
        Some(build_report(
            m,
            self.pool()
                .telemetry()
                .map(|shards| (self.pool().policy(), shards)),
            self.cache_counters(),
            self.wal.as_ref().map(|w| w.stats()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate;
    use crate::seqgen::generate_sequence;
    use complexobj::RetAttr;

    fn standard(generated: &GeneratedDb) -> EngineSpec {
        EngineSpec::Standard(generated.spec.clone())
    }

    fn tiny() -> Params {
        Params {
            parent_card: 200,
            num_top: 5,
            sequence_len: 20,
            buffer_pages: 16,
            size_cache: 20,
            ..Params::paper_default()
        }
    }

    fn loop_params() -> Params {
        Params {
            pr_update: 0.3,
            ..tiny()
        }
    }

    /// The builder a loop case runs on: the params' pool, plus the unit
    /// cache when the strategy needs one.
    fn loop_builder(p: &Params, strategy: Strategy) -> EngineBuilder {
        let b = Engine::builder().pool_pages(p.buffer_pages);
        match strategy_cache(p, strategy) {
            Some(cache) => b.cache(cache),
            None => b,
        }
    }

    /// Every representation an engine serves, with the strategy to drive
    /// it under and what the loop measured on it — `[total_io, par_io,
    /// child_io, update_io, values_returned]` for
    /// `generate_sequence(&loop_params())` — at the parent of the commit
    /// that merged the five loops into one. Captured from that build;
    /// never regenerate the counts from the current one.
    fn loop_cases(p: &Params) -> Vec<(&'static str, Strategy, EngineSpec, [u64; 5])> {
        use Strategy::{Bfs, Dfs, DfsCache, DfsClust};
        let generated = generate(p);
        let matrix = crate::matrix::generate_matrix(p);
        let oid = |s| EngineSpec::for_strategy(p, &generated, s);
        let levels = EngineSpec::Levels(vec![generated.spec.clone(); 2]);
        let proc = |caching| EngineSpec::Procedural(matrix.proc_spec.clone(), caching);
        let out_val = ProcCaching::OutsideValues(p.size_cache);
        vec![
            ("standard/DFS", Dfs, oid(Dfs), [57, 26, 17, 14, 375]),
            ("standard/BFS", Bfs, oid(Bfs), [95, 23, 57, 15, 375]),
            (
                "standard/DFSCACHE",
                DfsCache,
                oid(DfsCache),
                [287, 40, 218, 29, 375],
            ),
            (
                "clustered/DFSCLUST",
                DfsClust,
                oid(DfsClust),
                [303, 43, 201, 59, 375],
            ),
            ("levels/DFS", Dfs, levels, [57, 26, 17, 14, 375]),
            (
                "procedural/exec",
                Dfs,
                proc(ProcCaching::None),
                [59, 22, 23, 14, 375],
            ),
            (
                "procedural/out-val",
                Dfs,
                proc(out_val),
                [169, 30, 108, 31, 375],
            ),
        ]
    }

    /// The loop is the sum of its queries on every backend: one engine's
    /// `run_sequence` equals the per-query `retrieve`/`update` outputs
    /// summed on a twin started cold, and both equal the parent build's
    /// counts, so loop and oracle cannot drift together.
    #[test]
    fn run_sequence_is_the_sum_of_its_queries_on_every_backend() {
        let p = loop_params();
        let sequence = generate_sequence(&p);
        for (name, strategy, spec, parent) in loop_cases(&p) {
            let build = || loop_builder(&p, strategy).build(&spec).unwrap();
            let run = build().run_sequence(strategy, &sequence).unwrap();

            let twin = build();
            twin.pool().flush_and_clear().unwrap();
            let start = twin.pool().stats().snapshot();
            let (mut par, mut child, mut update, mut values) = (0, 0, 0, 0);
            for q in &sequence {
                match q {
                    Query::Retrieve(r) => {
                        let out = twin.retrieve(strategy, r).unwrap();
                        par += out.par_io.total();
                        child += out.child_io.total();
                        values += out.values.len() as u64;
                    }
                    Query::Update(u) => update += twin.update(u).unwrap().total(),
                }
            }
            let total = twin.pool().stats().snapshot().since(&start).total();

            let got = [
                run.total_io,
                run.par_io,
                run.child_io,
                run.update_io,
                run.values_returned,
            ];
            assert_eq!(got, [total, par, child, update, values], "{name}: twin");
            assert_eq!(got, parent, "{name}: parent build");
            assert_eq!(total, par + child + update, "{name}: split covers total");
            assert_eq!(run.cache, twin.cache_counters(), "{name}: cache counters");
            assert_eq!(run.retrieves + run.updates, sequence.len(), "{name}");
        }
    }

    /// Trace and concurrent runs are the same loop, so they serve a
    /// procedural engine too (both were OID-only while they went through
    /// the free functions) and agree with `run_sequence`.
    #[test]
    fn trace_and_one_stream_concurrent_match_run_sequence_on_a_procedural_engine() {
        let p = loop_params();
        let sequence = generate_sequence(&p);
        let (_, strategy, spec, parent) = loop_cases(&p).pop().unwrap();
        let build = || loop_builder(&p, strategy).build(&spec).unwrap();

        let (run, trace) = build().run_sequence_trace(strategy, &sequence).unwrap();
        assert_eq!(run.total_io, parent[0]);
        assert_eq!(trace.len(), sequence.len());
        assert_eq!(trace.iter().map(|t| t.io).sum::<u64>(), run.total_io);
        assert_eq!(trace.iter().filter(|t| t.is_update).count(), run.updates);

        let conc = build()
            .run_concurrent(strategy, std::slice::from_ref(&sequence))
            .unwrap();
        assert_eq!(conc.total_io, run.total_io);
        assert_eq!(conc.values_returned, run.values_returned);
        assert_eq!((conc.retrieves, conc.updates), (run.retrieves, run.updates));
    }

    /// The sum of `family`'s counters whose labels include every pair in
    /// `want`.
    fn counter_sum(report: &MetricsReport, family: &str, want: &[(&str, &str)]) -> u64 {
        let has = |labels: &cor_obs::Labels, (k, v): &(&str, &str)| {
            labels.iter().any(|(lk, lv)| lk == k && lv == v)
        };
        report
            .snapshot
            .family(family)
            .unwrap()
            .samples
            .iter()
            .filter(|s| want.iter().all(|pair| has(&s.labels, pair)))
            .map(|s| match s.value {
                cor_obs::MetricValue::Counter(c) => c,
                _ => panic!("{family} is a counter"),
            })
            .sum()
    }

    /// Metrics stay per call: the loop counts as one `sequence` call, not
    /// a `retrieve`/`update` call per query.
    #[test]
    fn run_sequence_counts_one_sequence_call() {
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        assert_eq!(sequence.len(), 20);
        let engine = Engine::builder()
            .metrics(true)
            .build_workload(&p, &generated, Strategy::Dfs)
            .unwrap();
        engine.run_sequence(Strategy::Dfs, &sequence).unwrap();
        let report = engine.metrics().unwrap();
        let calls = |want: &[(&str, &str)]| counter_sum(&report, "cor_query_total", want);
        assert_eq!(calls(&[("strategy", "DFS"), ("op", "sequence")]), 1);
        assert_eq!(calls(&[("op", "sequence")]), 1);
        assert_eq!(calls(&[("op", "retrieve")]), 0);
        assert_eq!(calls(&[("op", "update")]), 0);
    }

    #[test]
    fn metrics_do_not_change_io_accounting() {
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        for strategy in [Strategy::Dfs, Strategy::DfsCache] {
            let plain = Engine::builder()
                .build_workload(&p, &generated, strategy)
                .unwrap();
            let observed = Engine::builder()
                .metrics(true)
                .build_workload(&p, &generated, strategy)
                .unwrap();
            assert!(plain.metrics().is_none());
            let a = plain.run_sequence(strategy, &sequence).unwrap();
            let b = observed.run_sequence(strategy, &sequence).unwrap();
            assert_eq!(a.total_io, b.total_io, "{strategy}");
            assert_eq!(a.values_returned, b.values_returned, "{strategy}");
        }
    }

    /// Every strategy, over a mixed sequence on a two-shard 16-page pool:
    /// the report validates, counts every call under its op and strategy,
    /// its per-call read and write counters sum to the pool's delta, and
    /// it carries that strategy's retrieve latency, pool telemetry per
    /// shard, and live cache counters exactly when the strategy runs a
    /// cache.
    #[test]
    fn observed_engine_reports_spans_pool_and_cache() {
        use cor_obs::MetricValue;
        let p = Params {
            shards: 2,
            pr_update: 0.2,
            ..tiny()
        };
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        let retrieves = sequence
            .iter()
            .filter(|q| matches!(q, Query::Retrieve(_)))
            .count() as u64;
        let updates = sequence.len() as u64 - retrieves;
        assert!(retrieves > 0 && updates > 0);
        for strategy in Strategy::ALL {
            let engine = Engine::builder()
                .metrics(true)
                .build_workload(&p, &generated, strategy)
                .unwrap();
            let before = engine.pool().stats().snapshot();
            for q in &sequence {
                match q {
                    Query::Retrieve(r) => {
                        engine.retrieve(strategy, r).unwrap();
                    }
                    Query::Update(u) => {
                        engine.update(u).unwrap();
                    }
                }
            }
            let report = engine.metrics().unwrap();
            report.validate().unwrap();
            let calls = |op| counter_sum(&report, "cor_query_total", &[("op", op)]);
            assert_eq!(
                [calls("retrieve"), calls("update"), calls("sequence")],
                [retrieves, updates, 0],
                "{strategy}: one count per call"
            );
            // The per-call counters carry exactly the I/O the pool counted.
            let io = engine.pool().stats().snapshot().since(&before);
            assert!(io.reads > 0, "{strategy}: the sequence reads pages");
            let counted = (
                counter_sum(&report, "cor_query_reads_total", &[]),
                counter_sum(&report, "cor_query_writes_total", &[]),
            );
            assert_eq!(counted, (io.reads, io.writes), "{strategy}: per-call I/O");

            let want = cor_obs::labels(&[("strategy", strategy.name()), ("op", "retrieve")]);
            let sample = |name| {
                let family = report.snapshot.family(name).unwrap();
                let s = family.samples.iter().find(|s| s.labels == want);
                s.map(|s| s.value.clone()).unwrap()
            };
            assert_eq!(
                sample("cor_query_total"),
                MetricValue::Counter(retrieves),
                "{strategy}: retrieves count under their strategy"
            );
            let MetricValue::Histogram(latency) = sample("cor_query_latency_ns") else {
                panic!("{strategy}: latency is a histogram");
            };
            let (p50, max) = (latency.quantile(0.5), latency.max());
            assert!(0 < p50 && p50 <= max, "{strategy}: p50 {p50} max {max}");

            assert_eq!(report.pool.len(), 2, "{strategy}: one stripe per shard");
            assert!(report.pool_total().probes() > 0, "{strategy}: pool probes");
            assert_eq!(
                report.cache.is_some(),
                strategy.needs_cache(),
                "{strategy}: cache counters present exactly with a cache"
            );
            if let Some(c) = &report.cache {
                assert!(c.probes() > 0, "{strategy}: cache never probed");
            }
            let json = report.to_json();
            assert!(json.contains("\"cor_pool_hit_ratio\""), "{json}");
            assert!(json.contains("\"cor_query_latency_ns\""), "{json}");
        }
    }

    #[test]
    fn builder_metrics_cover_every_backend() {
        let p = tiny();
        let generated = generate(&p);
        let engine = Engine::builder()
            .pool_pages(16)
            .metrics(true)
            .build(&standard(&generated))
            .unwrap();
        let q = RetrieveQuery {
            lo: 0,
            hi: 4,
            attr: RetAttr::Ret1,
        };
        engine.retrieve(Strategy::Dfs, &q).unwrap();
        let report = engine.metrics().unwrap();
        report.validate().unwrap();
        assert_eq!(report.pool.len(), 1);
        assert!(report.cache.is_none(), "no cache attached");
    }

    #[test]
    fn builder_wires_pool_shape() {
        let p = tiny();
        let generated = generate(&p);
        let engine = Engine::builder()
            .pool_pages(32)
            .shards(4)
            .policy(ReplacementPolicy::Sieve)
            .build(&standard(&generated))
            .unwrap();
        assert_eq!(engine.pool().capacity(), 32);
        assert_eq!(engine.pool().shards(), 4);
        assert_eq!(engine.pool().policy(), ReplacementPolicy::Sieve);
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let out = engine.retrieve(Strategy::Dfs, &q).unwrap();
        assert!(!out.values.is_empty());
    }

    #[test]
    fn engine_update_applies_and_costs_io() {
        let p = tiny();
        let generated = generate(&p);
        let engine = Engine::builder()
            .pool_pages(16)
            .build(&standard(&generated))
            .unwrap();
        // Cold buffer: the update must fetch the target's page from disk.
        engine.pool().flush_and_clear().unwrap();
        let target = generated.spec.child_rels[0][0].oid;
        let delta = engine
            .update(&UpdateQuery {
                targets: vec![target],
                new_ret1: 4242,
            })
            .unwrap();
        assert!(delta.total() > 0);
        let db = engine.database().unwrap();
        let rec = db.fetch_child_record(target).unwrap().unwrap();
        let t = cor_access::decode(db.child_schema(), &rec).unwrap();
        assert_eq!(t.get(1).as_int(), Some(4242));
    }

    #[test]
    fn procedural_engine_serves_the_same_interface() {
        let engine = Engine::builder()
            .pool_pages(32)
            .build(&EngineSpec::Procedural(
                test_proc_spec(),
                ProcCaching::OutsideValues(8),
            ))
            .unwrap();
        let q = RetrieveQuery {
            lo: 0,
            hi: 3,
            attr: RetAttr::Ret1,
        };
        let cold = engine.retrieve(Strategy::Dfs, &q).unwrap();
        let warm = engine.retrieve(Strategy::Dfs, &q).unwrap();
        let mut a = cold.values.clone();
        let mut b = warm.values.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "cache warm-up must not change answers");
        assert!(engine.database().is_err(), "no CorDatabase behind proc");
        let r = engine
            .run_sequence(Strategy::Dfs, &[Query::Retrieve(q)])
            .unwrap();
        assert_eq!(r.retrieves, 1);
    }

    fn durable_rig() -> (Arc<Wal>, EngineBuilder) {
        let disk = Arc::new(cor_pagestore::MemDisk::new());
        let store = Arc::new(cor_wal::MemLogStore::new());
        let wal = Arc::new(Wal::new(store, cor_wal::WalConfig::default()));
        let builder = Engine::builder()
            .pool_pages(16)
            .cache(CacheConfig::default())
            .disk(disk)
            .wal(wal.clone());
        (wal, builder)
    }

    /// A mixed workload covering ChildRel updates plus cache unit
    /// insertion (retrieve materializes) and invalidation (update).
    fn durable_workload(engine: &Engine, generated: &crate::dbgen::GeneratedDb) {
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        engine.retrieve(Strategy::DfsCache, &q).unwrap();
        for (i, sub) in generated.spec.child_rels[0].iter().take(6).enumerate() {
            engine
                .update(&UpdateQuery {
                    targets: vec![sub.oid],
                    new_ret1: 1000 + i as i64,
                })
                .unwrap();
            if i == 2 {
                engine.checkpoint().unwrap();
            }
            engine.retrieve(Strategy::DfsCache, &q).unwrap();
        }
    }

    #[test]
    fn wal_attachment_leaves_io_stats_identical() {
        // The paper's cost metric must not move when durability is on:
        // log I/O bypasses the pool counters entirely.
        let p = tiny();
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        let plain = Engine::builder()
            .pool_pages(16)
            .cache(CacheConfig::default())
            .build(&standard(&generated))
            .unwrap();
        let expected = plain.run_sequence(Strategy::DfsCache, &sequence).unwrap();

        let (wal, builder) = durable_rig();
        let durable = builder.build(&standard(&generated)).unwrap();
        let got = durable.run_sequence(Strategy::DfsCache, &sequence).unwrap();
        assert_eq!(got.total_io, expected.total_io);
        assert_eq!(got.par_io, expected.par_io);
        assert_eq!(got.child_io, expected.child_io);
        assert_eq!(got.update_io, expected.update_io);
        assert_eq!(got.values_returned, expected.values_returned);
        assert!(wal.stats().appends > 0, "the run was actually logged");
    }

    #[test]
    fn crashed_engine_recovers_byte_identically_to_an_uncrashed_run() {
        let p = tiny();
        let generated = generate(&p);

        let spec = EngineSpec::Standard(generated.spec.clone());
        let builder = || {
            Engine::builder()
                .pool_pages(16)
                .cache(CacheConfig::default())
        };

        // Oracle: identical run, no crash, everything flushed.
        let (oracle_disk, oracle_store) = mem_stores();
        let oracle = builder()
            .create_on(oracle_disk.clone(), oracle_store, &spec)
            .unwrap();
        durable_workload(&oracle, &generated);
        let freed = oracle.pool().free_page_ids();
        oracle.pool().flush_all().unwrap();

        // Crashing run: same ops, then the pool dies with its dirty
        // frames and only the durable log + flushed pages survive.
        let (disk, store) = mem_stores();
        let engine = builder()
            .create_on(disk.clone(), store.clone(), &spec)
            .unwrap();
        durable_workload(&engine, &generated);
        drop(engine);
        store.crash();

        let stats = cor_wal::recover(disk.as_ref(), store.as_ref()).unwrap();
        assert!(stats.records_scanned > 0);
        assert!(stats.checkpoint_lsn.is_some());

        use cor_pagestore::DiskManager;
        assert_eq!(disk.num_pages(), oracle_disk.num_pages());
        let mut compared = 0;
        for pid in 0..disk.num_pages() {
            // Pages on the free list at crash time hold garbage by
            // definition; every live page must match exactly.
            if freed.contains(&pid) {
                continue;
            }
            let mut a = [0u8; cor_pagestore::PAGE_SIZE];
            let mut b = [0u8; cor_pagestore::PAGE_SIZE];
            disk.read_page(pid, &mut a).unwrap();
            oracle_disk.read_page(pid, &mut b).unwrap();
            assert_eq!(a, b, "page {pid} differs from the uncrashed oracle");
            compared += 1;
        }
        assert!(compared > 0);
    }

    #[test]
    fn plain_engine_has_no_checkpoint() {
        let generated = generate(&tiny());
        let engine = Engine::builder()
            .pool_pages(16)
            .build(&standard(&generated))
            .unwrap();
        assert!(engine.wal().is_none());
        assert!(matches!(engine.checkpoint(), Err(CorError::Durability(_))));
    }

    #[test]
    fn durable_engine_reports_wal_metrics() {
        let p = tiny();
        let generated = generate(&p);
        let (_, builder) = durable_rig();
        let engine = builder.metrics(true).build(&standard(&generated)).unwrap();
        durable_workload(&engine, &generated);
        let report = engine.metrics().unwrap();
        report.validate().unwrap();
        let w = report.wal.as_ref().expect("wal section present");
        assert!(w.appends > 0 && w.images > 0 && w.checkpoints > 0);
        let json = report.to_json();
        assert!(json.contains("\"cor_wal_appends_total\""), "{json}");
        assert!(json.contains("\"cor_wal_durable_lsn\""), "{json}");
        assert!(json.contains("\"cor_wal_fsyncs_total\""), "{json}");
    }

    fn mem_stores() -> (Arc<cor_pagestore::MemDisk>, Arc<cor_wal::MemLogStore>) {
        (
            Arc::new(cor_pagestore::MemDisk::new()),
            Arc::new(cor_wal::MemLogStore::new()),
        )
    }

    /// 4 parents over one ChildRel of 8 subobjects, stored as key-range
    /// queries (two parents sharing a range).
    fn test_proc_spec() -> ProcDatabaseSpec {
        use complexobj::database::{SubobjectSpec, CHILD_REL_BASE};
        use complexobj::procedural::{ProcObjectSpec, StoredQuery};
        use cor_relational::Oid;
        ProcDatabaseSpec {
            parents: (0..4u64)
                .map(|key| ProcObjectSpec {
                    key,
                    rets: [key as i64; 3],
                    dummy: "p".repeat(10),
                    members: StoredQuery::KeyRange {
                        rel: CHILD_REL_BASE,
                        lo: (key / 2) * 4,
                        hi: (key / 2) * 4 + 3,
                    },
                })
                .collect(),
            child_rels: vec![(0..8u64)
                .map(|k| SubobjectSpec {
                    oid: Oid::new(CHILD_REL_BASE, k),
                    rets: [10 * k as i64, 0, 0],
                    dummy: "c".repeat(10),
                })
                .collect()],
        }
    }

    fn sorted_values(engine: &Engine, q: &RetrieveQuery) -> Vec<i64> {
        let mut v = engine.retrieve(Strategy::Dfs, q).unwrap().values;
        v.sort_unstable();
        v
    }

    #[test]
    fn lifecycle_create_close_open_roundtrips_every_backend() {
        let p = tiny();
        let generated = generate(&p);
        let specs: Vec<(&str, EngineSpec)> = vec![
            ("standard", EngineSpec::Standard(generated.spec.clone())),
            (
                "clustered",
                EngineSpec::for_strategy(&p, &generated, Strategy::DfsClust),
            ),
            (
                "levels",
                EngineSpec::Levels(vec![generated.spec.clone(), generated.spec.clone()]),
            ),
            (
                "proc",
                EngineSpec::Procedural(test_proc_spec(), ProcCaching::OutsideValues(8)),
            ),
        ];
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        for (name, spec) in specs {
            let (disk, store) = mem_stores();
            let engine = Engine::builder()
                .pool_pages(16)
                .cache(CacheConfig::default())
                .create_on(disk.clone(), store.clone(), &spec)
                .unwrap_or_else(|e| panic!("{name}: create failed: {e}"));
            if let Backend::Oid(_) | Backend::Levels(_) = engine.backend {
                let target = generated.spec.child_rels[0][0].oid;
                engine
                    .update(&UpdateQuery {
                        targets: vec![target],
                        new_ret1: 777,
                    })
                    .unwrap();
            }
            let expected_values = sorted_values(&engine, &q);
            let expected_state = engine
                .levels()
                .iter()
                .map(CorDatabase::save_state)
                .collect::<Vec<_>>();
            engine
                .close()
                .unwrap_or_else(|e| panic!("{name}: close failed: {e}"));

            // The builder's (default) geometry must NOT win: the catalog's
            // recorded 16-page pool does.
            let reopened = Engine::builder()
                .open_on(disk, store)
                .unwrap_or_else(|e| panic!("{name}: open failed: {e}"));
            assert_eq!(reopened.pool().capacity(), 16, "{name}");
            assert_eq!(sorted_values(&reopened, &q), expected_values, "{name}");
            let reopened_state = reopened
                .levels()
                .iter()
                .map(CorDatabase::save_state)
                .collect::<Vec<_>>();
            assert_eq!(reopened_state.len(), expected_state.len(), "{name}");
            for (a, b) in expected_state.iter().zip(&reopened_state) {
                assert_eq!(a.parent_count, b.parent_count, "{name}");
                assert_eq!(a.child_counts, b.child_counts, "{name}");
                assert_eq!(a.parent_schema, b.parent_schema, "{name}");
                assert_eq!(a.child_schema, b.child_schema, "{name}");
            }
        }
    }

    #[test]
    fn crash_open_recovers_and_serves_identical_answers() {
        let p = tiny();
        let generated = generate(&p);
        let (disk, store) = mem_stores();
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let engine = Engine::builder()
            .pool_pages(16)
            .cache(CacheConfig::default())
            .create_on(
                disk.clone(),
                store.clone(),
                &EngineSpec::Standard(generated.spec.clone()),
            )
            .unwrap();
        for (i, sub) in generated.spec.child_rels[0].iter().take(4).enumerate() {
            engine
                .update(&UpdateQuery {
                    targets: vec![sub.oid],
                    new_ret1: 2000 + i as i64,
                })
                .unwrap();
            if i == 1 {
                engine.checkpoint().unwrap();
            }
        }
        let expected = sorted_values(&engine, &q);
        let allocators = engine.database().unwrap().save_state().parent_count;
        drop(engine); // dirty frames die with the pool
        store.crash(); // unsynced log tail gone too (FsyncPolicy::Always ⇒ none)

        let reopened = Engine::builder().open_on(disk, store).unwrap();
        assert_eq!(sorted_values(&reopened, &q), expected);
        assert_eq!(
            reopened.database().unwrap().save_state().parent_count,
            allocators
        );
    }

    /// `policy` is the one setter: a later `exec_options` call leaves it
    /// alone, and on reopen the catalog's byte wins whatever the builder
    /// asks for.
    #[test]
    fn policy_survives_exec_options_and_reopen() {
        let p = tiny();
        let generated = generate(&p);
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let opts = ExecOptions {
            smart_threshold: 42,
            ..Default::default()
        };
        let builder = || {
            Engine::builder()
                .pool_pages(16)
                .policy(ReplacementPolicy::Sieve)
                .exec_options(opts)
        };
        let built = builder().build(&standard(&generated)).unwrap();
        assert_eq!(built.pool().policy(), ReplacementPolicy::Sieve);
        assert_eq!(built.options(), &opts);

        let (disk, store) = mem_stores();
        let engine = builder()
            .create_on(
                disk.clone(),
                store.clone(),
                &EngineSpec::Standard(generated.spec.clone()),
            )
            .unwrap();
        assert_eq!(engine.pool().policy(), ReplacementPolicy::Sieve);
        let expected = sorted_values(&engine, &q);
        engine.close().unwrap();

        let reopened = Engine::builder()
            .policy(ReplacementPolicy::Lru)
            .exec_options(ExecOptions::default())
            .open_on(disk, store)
            .unwrap();
        assert_eq!(reopened.pool().policy(), ReplacementPolicy::Sieve);
        assert_eq!(reopened.options(), &opts, "the catalog's options win too");
        assert_eq!(sorted_values(&reopened, &q), expected);
    }

    /// Every builder setting reaches every in-memory terminal: `build`
    /// over each of the four specs and `build_workload` all go through
    /// the one pool assembly and the one `Engine` assembly. (When
    /// `build_workload` assembled its own pool, the `.disk()` handle
    /// stayed at 0 pages and `.wal()` saw no append.)
    #[test]
    fn every_builder_setting_reaches_every_terminal() {
        let p = tiny();
        let generated = generate(&p);
        // (name, spec for `build` or `None` for `build_workload`, does the
        // representation take a cache: the builder's, or under
        // `build_workload` the strategy's)
        let terminals: [(&str, Option<EngineSpec>, Option<bool>); 5] = [
            ("build standard", Some(standard(&generated)), Some(true)),
            (
                "build clustered",
                Some(EngineSpec::for_strategy(&p, &generated, Strategy::DfsClust)),
                Some(false),
            ),
            (
                "build levels",
                Some(EngineSpec::Levels(vec![generated.spec.clone(); 2])),
                Some(true),
            ),
            (
                "build procedural",
                Some(EngineSpec::Procedural(
                    test_proc_spec(),
                    ProcCaching::OutsideValues(8),
                )),
                None,
            ),
            ("build_workload", None, Some(true)),
        ];
        for (name, spec, has_cache) in terminals {
            let (disk, store) = mem_stores();
            let wal = Arc::new(Wal::new(store, WalConfig::default()));
            let builder = Engine::builder()
                .pool_pages(16)
                .disk(disk.clone())
                .wal(wal.clone())
                .policy(ReplacementPolicy::Sieve)
                .metrics(true)
                .cache(CacheConfig::default());
            let engine = match &spec {
                Some(spec) => builder.build(spec),
                None => builder.build_workload(&p, &generated, Strategy::DfsCache),
            }
            .unwrap();
            use cor_pagestore::DiskManager;
            assert!(disk.num_pages() > 0, "{name}: disk handle unused");
            assert!(wal.stats().appends > 0, "{name}: build was not logged");
            assert!(engine.wal().is_some(), "{name}: wal handle dropped");
            assert!(engine.metrics().is_some(), "{name}: metrics off");
            let pools: Vec<&Arc<BufferPool>> = match &engine.backend {
                Backend::Proc(db) => vec![db.pool()],
                _ => engine.levels().iter().map(CorDatabase::pool).collect(),
            };
            for pool in pools {
                assert_eq!(pool.policy(), ReplacementPolicy::Sieve, "{name}");
                assert!(pool.telemetry().is_some(), "{name}: telemetry off");
            }
            if let Some(expected) = has_cache {
                assert!(
                    engine.levels().iter().all(|db| db.has_cache() == expected),
                    "{name}: cache"
                );
            }
        }
    }

    #[test]
    fn open_reports_typed_catalog_errors() {
        let (disk, store) = mem_stores();
        let err = Engine::builder()
            .open_on(disk, store)
            .err()
            .expect("empty store must not open");
        assert!(matches!(err, CorError::CatalogMissing), "{err}");

        // A used store whose page 0 is not a catalog gets the typed
        // error, not a silent rebuild.
        let (disk, store) = mem_stores();
        use cor_pagestore::DiskManager;
        disk.allocate_page().unwrap();
        let err = Engine::builder()
            .open_on(disk, store)
            .err()
            .expect("foreign store must not open");
        assert!(matches!(err, CorError::CatalogMissing), "{err}");

        // A store whose catalog header names another layout reports the
        // version it found.
        let generated = generate(&tiny());
        let (disk, store) = mem_stores();
        let engine = Engine::builder()
            .pool_pages(16)
            .create_on(
                disk.clone(),
                store.clone(),
                &EngineSpec::Standard(generated.spec.clone()),
            )
            .unwrap();
        let catalog = &engine.catalog.as_ref().unwrap().catalog;
        let mut blob = catalog.get_blob(ENGINE_BLOB).unwrap();
        blob[8] = 9; // version byte
        catalog.save_blob(ENGINE_BLOB, &blob).unwrap();
        engine.pool().flush_all().unwrap();
        drop(engine);
        let err = Engine::builder()
            .open_on(disk, store)
            .err()
            .expect("catalog version mismatch must surface");
        assert!(
            matches!(err, CorError::CatalogVersion { found: 9, .. }),
            "{err}"
        );
    }

    /// A blob chain is bytes from disk: a store whose engine blob chain
    /// loops back on itself fails to open with a typed error (it hung
    /// before `Catalog` bounded its chain walk).
    #[test]
    fn open_rejects_a_corrupt_blob_chain() {
        const POINTER: &[u8] = b"\x04\x06engine"; // kind, name_len, name
        let generated = generate(&tiny());
        let (disk, store) = mem_stores();
        Engine::builder()
            .pool_pages(16)
            .create_on(disk.clone(), store, &standard(&generated))
            .unwrap()
            .close()
            .unwrap();
        let pool = BufferPool::builder()
            .capacity(8)
            .disk(Box::new(disk.clone()))
            .build();
        // After the name: payload length, then the first chain page.
        let first = pool
            .read(0, |p| {
                let (_, rec) = p.records().find(|(_, r)| r.starts_with(POINTER))?;
                Some(u32::from_le_bytes(rec[12..16].try_into().unwrap()))
            })
            .unwrap()
            .expect("engine pointer record");
        let mut chunk = pool
            .read(first, |p| p.records().next().unwrap().1.to_vec())
            .unwrap();
        chunk[..4].copy_from_slice(&first.to_le_bytes());
        pool.write(first, |mut p| {
            p.init();
            p.insert(&chunk).unwrap();
        })
        .unwrap();
        pool.flush_all().unwrap();
        drop(pool);
        let err = Engine::builder()
            .open_on(disk, Arc::new(cor_wal::MemLogStore::new()))
            .err()
            .expect("a corrupt chain must not open");
        assert!(matches!(err, CorError::CatalogMissing), "{err}");
    }

    #[test]
    fn create_and_open_on_a_real_path() {
        let p = tiny();
        let generated = generate(&p);
        let dir = std::env::temp_dir().join(format!("cor-engine-lifecycle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let engine = Engine::builder()
            .pool_pages(16)
            .create(&dir, &EngineSpec::Standard(generated.spec.clone()))
            .unwrap();
        let expected = sorted_values(&engine, &q);
        engine.close().unwrap();
        let reopened = Engine::builder().open(&dir).unwrap();
        assert_eq!(sorted_values(&reopened, &q), expected);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn levels_engine_answers_multidot() {
        use crate::hierarchy::{generate_hierarchy_specs, HierarchyParams};
        let hp = HierarchyParams {
            levels: 2,
            top_card: 40,
            fan_out: 3,
            use_factor: 3,
            buffer_pages: 16,
            ..HierarchyParams::default()
        };
        let specs = generate_hierarchy_specs(&hp);
        let engine = Engine::builder()
            .pool_pages(16)
            .build(&EngineSpec::Levels(specs))
            .unwrap();
        assert_eq!(engine.levels().len(), 2);
        assert!(
            !Arc::ptr_eq(engine.levels()[0].pool(), engine.levels()[1].pool()),
            "in memory each level is its own INGRES instance"
        );
        let q = MultiDotQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let d = engine.retrieve_multilevel(Strategy::Dfs, &q).unwrap();
        let b = engine.retrieve_multilevel(Strategy::Bfs, &q).unwrap();
        let mut dv = d.values;
        let mut bv = b.values;
        dv.sort_unstable();
        bv.sort_unstable();
        assert_eq!(dv, bv);
    }
}
