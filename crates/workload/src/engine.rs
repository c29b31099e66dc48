//! The `Engine` facade — one session object over the paper's machinery.
//!
//! Each representation has its own low-level dispatch
//! (`strategies::execute_retrieve`, `multilevel::execute_multilevel`,
//! `procedural::execute_proc_retrieve`) over a pool + database + cache
//! someone has to assemble. The engine owns that assembly behind a
//! builder and exposes uniform `retrieve` / `update` / `run_sequence`
//! calls. `&Engine` is `Sync`: callers that want several streams drive
//! their own threads over one engine.
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

use crate::catalog::{EngineCatalog, SavedBackend};
use crate::dbgen::{cluster_assignment, strategy_cache, GeneratedDb};
use crate::driver::{QueryTrace, RunResult};
use crate::metrics::MetricsReport;
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
use cor_obs::flight;
use cor_pagestore::{
    sync_dir, BufferPool, DiskManager, Durability, FileDisk, IoDelta, ReplacementPolicy, WalHook,
    DEFAULT_POOL_PAGES,
};
use cor_wal::{CheckpointInfo, FileLogStore, LogStore, Wal, WalConfig};
use std::path::Path;
use std::sync::Arc;

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
    /// clustered for DFSCLUST — a random assignment drawn from its own
    /// derived stream of `params.seed` — and standard otherwise.
    pub fn for_strategy(params: &Params, generated: &GeneratedDb, strategy: Strategy) -> Self {
        let spec = generated.spec.clone();
        if strategy.needs_cluster() {
            EngineSpec::Clustered(spec, cluster_assignment(params, generated))
        } else {
            EngineSpec::Standard(spec)
        }
    }
}

/// The durable half of a lifecycle-built engine: its log, the page-0
/// catalog handle, and the pool's construction settings, recorded
/// unchanged in every snapshot.
struct Durable {
    wal: Arc<Wal>,
    catalog: Catalog,
    pool_pages: usize,
    shards: usize,
    policy: ReplacementPolicy,
}

impl Durable {
    /// Re-snapshot `backend` into the persistent catalog: backend file
    /// roots, OID allocators, cache directories, the pool's creation
    /// settings, `opts`, and the free-page list, with `clean` as the
    /// shutdown flag.
    fn save_catalog(
        &self,
        backend: &Backend,
        opts: &ExecOptions,
        clean: bool,
    ) -> Result<(), CorError> {
        let saved = match backend {
            Backend::Oid(db) => SavedBackend::Oid(db.save_state()),
            Backend::Levels(levels) => {
                SavedBackend::Levels(levels.iter().map(CorDatabase::save_state).collect())
            }
            Backend::Proc(db) => SavedBackend::Proc(db.save_state()),
        };
        let cat = EngineCatalog {
            clean_shutdown: clean,
            pool_pages: self.pool_pages,
            shards: self.shards,
            policy: self.policy,
            opts: *opts,
            free_pages: backend.pool().free_page_ids(),
            backend: saved,
        };
        self.catalog
            .save(&cat.encode())
            .map_err(|e| CorError::Durability(format!("saving engine catalog: {e}")))
    }
}

/// Map a bootstrap-read catalog error: a store whose page 0 does not
/// parse as a chain head (or whose chain does not) was not created by
/// the lifecycle API; real storage failures pass through.
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

impl Backend {
    /// The buffer pool (level 0's for hierarchies).
    fn pool(&self) -> &Arc<BufferPool> {
        match self {
            Backend::Oid(db) => db.pool(),
            Backend::Levels(levels) => levels[0].pool(),
            Backend::Proc(db) => db.pool(),
        }
    }
}

/// A query-serving session: pool + database + optional cache behind one
/// object. Build with [`Engine::builder`].
pub struct Engine {
    backend: Backend,
    opts: ExecOptions,
    /// The log and catalog of an engine made by `create`/`open`; `None`
    /// for one made by `build`.
    durable: Option<Durable>,
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

    /// Configuration of the log the lifecycle terminals
    /// ([`create`](Self::create) / [`open`](Self::open) and their `_on`
    /// forms) make (default: fsync always, 1 MiB segments). An in-memory
    /// [`build`](Self::build) has no log.
    pub fn wal_config(mut self, config: WalConfig) -> Self {
        self.wal_config = config;
        self
    }

    /// Turn on per-shard pool telemetry (hits, misses, evictions,
    /// write-backs, pin waits), readable with the cache counters via
    /// [`Engine::metrics`]. Disabled by default; a pool built without it
    /// holds no counters. [`IoStats`](cor_pagestore::IoStats) totals — the
    /// paper's cost metric — are identical either way.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// The one pool assembly: every terminal's pool carries every
    /// builder setting. A pool is made without a log; the lifecycle
    /// terminals give it theirs by [`BufferPool::attach_wal`].
    fn make_pool(&self) -> Arc<BufferPool> {
        let mut b = BufferPool::builder()
            .capacity(self.pool_pages)
            .shards(self.shards)
            .policy(self.policy)
            .telemetry(self.metrics);
        if let Some(disk) = &self.disk {
            b = b.disk(Box::new(disk.clone()));
        }
        Arc::new(b.build())
    }

    /// The durable state of a lifecycle-built engine: its log and page-0
    /// catalog beside the pool settings — the builder's, which `open_on`
    /// has by then replaced with the store's.
    fn durable(&self, wal: Arc<Wal>, catalog: Catalog) -> Durable {
        Durable {
            wal,
            catalog,
            pool_pages: self.pool_pages,
            shards: self.shards,
            policy: self.policy,
        }
    }

    /// The one `Engine` assembly.
    fn into_engine(self, backend: Backend, durable: Option<Durable>) -> Engine {
        Engine {
            backend,
            opts: self.opts,
            durable,
        }
    }

    /// Build the spec's backend, unlogged — the one build path. A store
    /// is one file, so the lifecycle terminals pass its one `shared`
    /// pool (page 0 already holding the catalog) and every database —
    /// each hierarchy level included — lives on it; in memory (`None`)
    /// each database gets a pool of its own from
    /// [`make_pool`](Self::make_pool).
    fn build_backend(
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
    /// (default: a private `MemDisk`). The engine has no log and writes
    /// no persistent catalog, so it can neither checkpoint nor be
    /// reopened (use [`create`](Self::create) for that).
    pub fn build(self, spec: &EngineSpec) -> Result<Engine, CorError> {
        let backend = self.build_backend(None, spec)?;
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
    /// `spec`. The page store is opened with [`Durability::Fsync`], so
    /// the one store sync [`create_on`](Self::create_on) makes is a real
    /// `fdatasync`. The persistent catalog is durable in the log before
    /// this returns, and so are the names `db.pages` and `wal/` in
    /// `path` (one directory sync), so the store is reopenable — via
    /// [`open`](Self::open), spec-free — from any point after `create`,
    /// crash included; a crash inside `create` leaves a store that
    /// `open` refuses as [`CorError::CatalogMissing`].
    pub fn create(self, path: &Path, spec: &EngineSpec) -> Result<Engine, CorError> {
        let (disk, store) = Self::open_files(path)?;
        let engine = self.create_on(disk, store, spec)?;
        sync_dir(path)
            .map_err(|e| CorError::Durability(format!("syncing {}: {e}", path.display())))?;
        Ok(engine)
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
        let disk = FileDisk::open_with(&path.join("db.pages"), Durability::Fsync)
            .map_err(|e| CorError::Durability(format!("opening page store: {e}")))?;
        let store = FileLogStore::open(&path.join("wal"))
            .map_err(|e| CorError::Durability(format!("opening log store: {e}")))?;
        Ok((Arc::new(disk), Arc::new(store)))
    }

    /// [`create`](Self::create) over explicit disk and log stores —
    /// the crash-test entry point ([`MemDisk`](cor_pagestore::MemDisk),
    /// [`FaultyDisk`](cor_pagestore::FaultyDisk),
    /// [`MemLogStore`](cor_wal::MemLogStore)). Both must be empty.
    ///
    /// The store is built without its log, in four steps:
    ///
    /// 1. the catalog (page 0, an empty blob) and the backend are built
    ///    on a pool with no log;
    /// 2. [`BufferPool::attach_wal`] writes every page back, syncs the
    ///    disk once and attaches a fresh log;
    /// 3. the catalog is saved through the log — create's first logged
    ///    record;
    /// 4. the log is synced through that save, whatever the
    ///    [`FsyncPolicy`](cor_wal::FsyncPolicy): this is create's commit
    ///    point.
    ///
    /// A crash before step 4 finishes leaves a store whose page 0 holds
    /// no engine catalog (`open_on` returns
    /// [`CorError::CatalogMissing`]); a crash after it recovers to the
    /// created store by replaying the catalog save alone.
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
        let wal = Arc::new(Wal::new(store, self.wal_config));
        let pool = self.make_pool();
        // Page 0, allocated before any relation, holds the catalog.
        let catalog = Catalog::create(Arc::clone(&pool))
            .map_err(|e| CorError::Durability(format!("creating catalog: {e}")))?;
        let backend = self.build_backend(Some(&pool), spec)?;
        pool.attach_wal(wal.clone())?;
        let durable = self.durable(Arc::clone(&wal), catalog);
        durable.save_catalog(&backend, &self.opts, false)?;
        wal.flush_to(wal.appended_lsn())
            .map_err(|e| CorError::Durability(format!("syncing the catalog save: {e}")))?;
        flight::record(flight::FlightKind::EngineOpen, self.pool_pages as u64, 1, 0);
        Ok(self.into_engine(backend, Some(durable)))
    }

    /// [`open`](Self::open) over explicit disk and log stores.
    ///
    /// Runs crash recovery, then reads the engine catalog through a
    /// throwaway bootstrap pool (the real pool's settings are *in* the
    /// catalog), rebuilds the pool, gives it the reopened log by
    /// [`BufferPool::attach_wal`] — which syncs the store once, so
    /// recovery's redo writes are on the medium before the log takes a
    /// record — rebuilds the backend, and marks the store in-use. Typed
    /// failures: [`CorError::CatalogMissing`] when the
    /// store was not created by this API (a page 0 in an earlier layout
    /// included), [`CorError::CatalogVersion`] when its catalog blob
    /// carries another layout version.
    ///
    /// The builder's pool geometry, policy and `exec_options` are
    /// ignored — the catalog's recorded values win, so every reopen
    /// serves queries with the same buffer economics and options the
    /// store was created with. Only `metrics` and
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
            EngineCatalog::decode(&cat.load().map_err(catalog_probe_err)?)?
        };
        let wal = Wal::attach(store, self.wal_config)
            .map(Arc::new)
            .map_err(|e| CorError::Durability(format!("attaching WAL: {e}")))?;
        self.pool_pages = saved.pool_pages;
        self.shards = saved.shards;
        self.policy = saved.policy;
        self.opts = saved.opts;
        self.disk = Some(disk);
        let pool = self.make_pool();
        // Syncs the store before the log takes its first record, so
        // recovery's redo writes are on the medium before a checkpoint
        // can drop the log that holds them.
        pool.attach_wal(wal.clone())?;
        if saved.clean_shutdown {
            // The free list is trustworthy only when nothing ran after it
            // was saved. After a crash it is discarded: a page freed (or
            // un-freed) post-snapshot could otherwise be handed out while
            // live data sits on it. Leaked pages are bounded and inert.
            for &pid in &saved.free_pages {
                pool.free_page(pid)?;
            }
        }
        let backend = match &saved.backend {
            SavedBackend::Oid(s) => Backend::Oid(CorDatabase::open_state(Arc::clone(&pool), s)?),
            SavedBackend::Levels(ls) => Backend::Levels(
                ls.iter()
                    .map(|s| CorDatabase::open_state(Arc::clone(&pool), s))
                    .collect::<Result<_, _>>()?,
            ),
            SavedBackend::Proc(s) => Backend::Proc(ProcDatabase::open_state(Arc::clone(&pool), s)?),
        };
        // Opened after the backend, so that its read of page 0 directly
        // precedes the save's and leaves the pool's order as the save does.
        let catalog = Catalog::open(Arc::clone(&pool))
            .map_err(|e| CorError::Durability(format!("reopening catalog: {e}")))?;
        let durable = self.durable(wal, catalog);
        // Mark in-use (clears clean_shutdown) and persist the reconciled
        // cache directories in one stroke.
        durable.save_catalog(&backend, &self.opts, false)?;
        flight::record(
            flight::FlightKind::EngineOpen,
            saved.pool_pages as u64,
            0,
            0,
        );
        Ok(self.into_engine(backend, Some(durable)))
    }
}

impl Engine {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Replace the engine's per-query execution options. Everything in
    /// [`ExecOptions`] is read per query, so the change is complete; what
    /// is fixed when the pool is built (geometry, policy) is not in it.
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
        self.backend.pool()
    }

    /// The log and catalog, or the error an in-memory engine gives `op`.
    fn durable(&self, op: &str) -> Result<&Durable, CorError> {
        self.durable.as_ref().ok_or_else(|| {
            CorError::Durability(format!("{op} needs an engine made by create or open"))
        })
    }

    /// Shut the engine down cleanly: persist the catalog with the
    /// `clean_shutdown` flag set, flush every dirty page, and checkpoint
    /// so the next [`EngineBuilder::open`] replays (almost) nothing and
    /// may trust the saved free-page list. Consumes the engine.
    pub fn close(self) -> Result<(), CorError> {
        let d = self.durable("close")?;
        d.save_catalog(&self.backend, &self.opts, true)?;
        self.pool().flush_all()?;
        d.wal
            .checkpoint(|| self.pool().dirty_page_table())
            .map_err(|e| CorError::Durability(format!("close checkpoint failed: {e}")))?;
        flight::record(flight::FlightKind::EngineClose, 0, 0, 0);
        Ok(())
    }

    /// The write-ahead log of an engine made by `create`/`open`.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.durable.as_ref().map(|d| &d.wal)
    }

    /// Take a checkpoint: re-save the persistent catalog, so a
    /// post-checkpoint crash recovers allocator counters and cache
    /// directories no staler than this checkpoint, then log the pool's
    /// dirty-page table, fsync, and garbage-collect log segments below
    /// the new redo horizon. Bounds both recovery time and log size.
    /// Errors on engines made by [`build`](EngineBuilder::build).
    ///
    /// Safe against queries running concurrently on other threads: the
    /// WAL captures its begin LSN before pulling the dirty-page table
    /// (the closure below), so a page write logged while the table is
    /// being assembled stays above the recorded redo horizon even when
    /// the table misses it.
    pub fn checkpoint(&self) -> Result<CheckpointInfo, CorError> {
        let d = self.durable("checkpoint")?;
        d.save_catalog(&self.backend, &self.opts, false)?;
        d.wal
            .checkpoint(|| self.pool().dirty_page_table())
            .map_err(|e| CorError::Durability(format!("checkpoint failed: {e}")))
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
    /// so `strategy` is ignored. Hierarchies serve plain retrieves from
    /// level 0. With [`update`](Self::update), the only place a query is
    /// dispatched on the representation.
    #[inline]
    pub fn retrieve(
        &self,
        strategy: Strategy,
        query: &RetrieveQuery,
    ) -> Result<StrategyOutput, CorError> {
        let out = match &self.backend {
            Backend::Oid(db) => execute_retrieve(db, strategy, query, &self.opts),
            Backend::Levels(levels) => execute_retrieve(&levels[0], strategy, query, &self.opts),
            Backend::Proc(db) => execute_proc_retrieve(db, query),
        };
        self.commit(out)
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
        self.commit(execute_multilevel(levels, strategy, query, &self.opts))
    }

    /// Apply one update, returning the I/O spent. Cache maintenance
    /// (I-lock invalidation) applies whenever the database carries a
    /// cache — Sec. 3.2.
    #[inline]
    pub fn update(&self, update: &UpdateQuery) -> Result<IoDelta, CorError> {
        let delta = match &self.backend {
            Backend::Oid(db) => apply_update(db, update, db.has_cache()),
            Backend::Levels(levels) => apply_update(&levels[0], update, levels[0].has_cache()),
            Backend::Proc(db) => apply_proc_update(db, update),
        };
        self.commit(delta)
    }

    /// Group commit at the operation boundary: hand the log's tail to
    /// its store and apply the fsync policy ([`Wal::commit`]), whether or
    /// not the operation failed. The operation's own error wins over the
    /// commit's.
    #[inline]
    fn commit<T>(&self, result: Result<T, CorError>) -> Result<T, CorError> {
        let Some(d) = &self.durable else {
            return result;
        };
        match (result, d.wal.commit()) {
            (Ok(_), Err(e)) => Err(CorError::Durability(format!("log commit failed: {e}"))),
            (result, _) => result,
        }
    }

    /// The measured loop (paper Sec. 4, step \[3\]): start cold — empty
    /// buffer; the cache, if any, warms during the sequence — run every
    /// query, and tally the paper's `ParCost`/`ChildCost` split beside the
    /// total. `observe` sees each query as it completes.
    fn run_observed(
        &self,
        strategy: Strategy,
        sequence: &[Query],
        mut observe: impl FnMut(QueryTrace),
    ) -> Result<RunResult, CorError> {
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
                    let out = self.retrieve(strategy, r)?;
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
                    let delta = self.update(u)?;
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

    /// The pool's per-shard telemetry and the cache counters (when a
    /// cache is attached). `None` unless the engine was built with
    /// [`metrics`](EngineBuilder::metrics) on.
    pub fn metrics(&self) -> Option<MetricsReport> {
        self.pool().telemetry().map(|pool| MetricsReport {
            pool,
            cache: self.cache_counters(),
        })
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

    /// A trace run is the same loop as `run_sequence`, so it serves a
    /// procedural engine too (it was OID-only while it went through the
    /// free functions) and agrees with `run_sequence`.
    #[test]
    fn trace_matches_run_sequence_on_a_procedural_engine() {
        let p = loop_params();
        let sequence = generate_sequence(&p);
        let (_, strategy, spec, parent) = loop_cases(&p).pop().unwrap();
        let engine = loop_builder(&p, strategy).build(&spec).unwrap();

        let (run, trace) = engine.run_sequence_trace(strategy, &sequence).unwrap();
        assert_eq!(run.total_io, parent[0]);
        assert_eq!(trace.len(), sequence.len());
        assert_eq!(trace.iter().map(|t| t.io).sum::<u64>(), run.total_io);
        assert_eq!(trace.iter().filter(|t| t.is_update).count(), run.updates);
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
    /// the report carries pool telemetry per shard, and live cache
    /// counters exactly when the strategy runs a cache.
    #[test]
    fn observed_engine_reports_spans_pool_and_cache() {
        let p = Params {
            shards: 2,
            pr_update: 0.2,
            ..tiny()
        };
        let generated = generate(&p);
        let sequence = generate_sequence(&p);
        for strategy in Strategy::ALL {
            let engine = Engine::builder()
                .metrics(true)
                .build_workload(&p, &generated, strategy)
                .unwrap();
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
            assert_eq!(report.pool.len(), 2, "{strategy}: one stripe per shard");
            let probes: u64 = report.pool.iter().map(|s| s.probes()).sum();
            assert!(probes > 0, "{strategy}: pool probes");
            assert_eq!(
                report.cache.is_some(),
                strategy.needs_cache(),
                "{strategy}: cache counters present exactly with a cache"
            );
            if let Some(c) = &report.cache {
                assert!(c.hits + c.misses > 0, "{strategy}: cache never probed");
            }
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
        let builder = || {
            Engine::builder()
                .pool_pages(16)
                .cache(CacheConfig::default())
        };
        let plain = builder().build(&standard(&generated)).unwrap();
        let expected = plain.run_sequence(Strategy::DfsCache, &sequence).unwrap();

        let (disk, store) = mem_stores();
        let durable = builder()
            .create_on(disk, store, &standard(&generated))
            .unwrap();
        let wal = durable.wal().unwrap();
        let created = wal.stats().appends;
        let got = durable.run_sequence(Strategy::DfsCache, &sequence).unwrap();
        assert_eq!(got.total_io, expected.total_io);
        assert_eq!(got.par_io, expected.par_io);
        assert_eq!(got.child_io, expected.child_io);
        assert_eq!(got.update_io, expected.update_io);
        assert_eq!(got.values_returned, expected.values_returned);
        assert!(wal.stats().appends > created, "the run was actually logged");
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

    /// `metrics()` reads the pool's telemetry: on the lifecycle terminals
    /// it is there exactly when the builder turns it on, with one pool
    /// stripe per shard and cache counters exactly when the backend has a
    /// cache.
    #[test]
    fn lifecycle_terminals_report_metrics_exactly_when_switched_on() {
        let p = tiny();
        let generated = generate(&p);
        let standard = EngineSpec::Standard(generated.spec.clone());
        let procedural = EngineSpec::Procedural(test_proc_spec(), ProcCaching::OutsideValues(8));
        // (name, spec, the builder's cache, does the backend have a cache)
        let cases = [
            ("standard", &standard, None, false),
            ("cached", &standard, Some(CacheConfig::default()), true),
            ("procedural", &procedural, None, true),
        ];
        for (name, spec, cache, has_cache) in cases {
            let (disk, store) = mem_stores();
            let mut builder = Engine::builder().pool_pages(16).shards(2).metrics(true);
            if let Some(cfg) = cache {
                builder = builder.cache(cfg);
            }
            let check = |engine: &Engine, terminal: &str| {
                let report = engine
                    .metrics()
                    .unwrap_or_else(|| panic!("{name}: {terminal} reports no metrics"));
                assert_eq!(
                    report.pool.len(),
                    2,
                    "{name}: {terminal}: one stripe per shard"
                );
                assert_eq!(
                    report.cache.is_some(),
                    has_cache,
                    "{name}: {terminal}: cache"
                );
            };
            let created = builder
                .clone()
                .create_on(disk.clone(), store.clone(), spec)
                .unwrap();
            check(&created, "create_on");
            created.close().unwrap();
            let opened = builder.open_on(disk.clone(), store.clone()).unwrap();
            check(&opened, "open_on");
            opened.close().unwrap();
            let plain = Engine::builder().open_on(disk, store).unwrap();
            assert!(
                plain.metrics().is_none(),
                "{name}: reopened without metrics"
            );
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
    /// stayed at 0 pages.)
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
            let disk = Arc::new(cor_pagestore::MemDisk::new());
            let builder = Engine::builder()
                .pool_pages(16)
                .disk(disk.clone())
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
            assert!(engine.metrics().is_some(), "{name}: metrics off");
            let level_pools = engine.levels().iter().map(CorDatabase::pool);
            for pool in std::iter::once(engine.pool()).chain(level_pools) {
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
        let catalog = &engine.durable.as_ref().unwrap().catalog;
        let mut blob = catalog.load().unwrap();
        blob[8] = 9; // version byte
        catalog.save(&blob).unwrap();
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
        // The head: payload length, then the first chain page.
        let first = pool
            .read(0, |p| {
                let rec = p.record(0)?;
                Some(u32::from_le_bytes(rec[4..8].try_into().unwrap()))
            })
            .unwrap()
            .expect("chain head");
        let mut chunk = pool.read(first, |p| p.record(0).unwrap().to_vec()).unwrap();
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

    /// A crash on real files: the engine is forgotten, so nothing closes
    /// it, and its log segment keeps the zero fill past its last record.
    /// Twice, so the second open recovers over a log the first one
    /// attached to.
    #[test]
    fn crash_and_reopen_on_a_real_path() {
        let p = tiny();
        let generated = generate(&p);
        let dir = std::env::temp_dir().join(format!("cor-engine-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let subs = &generated.spec.child_rels[0];
        let update = |engine: &Engine, i: usize| {
            engine
                .update(&UpdateQuery {
                    targets: vec![subs[i].oid],
                    new_ret1: 3000 + i as i64,
                })
                .unwrap();
        };
        let engine = Engine::builder()
            .pool_pages(16)
            .create(&dir, &EngineSpec::Standard(generated.spec.clone()))
            .unwrap();
        update(&engine, 0);
        update(&engine, 1);
        let expected = sorted_values(&engine, &q);
        std::mem::forget(engine); // no close, no truncation: a crash

        let reopened = Engine::builder().open(&dir).unwrap();
        assert_eq!(sorted_values(&reopened, &q), expected);
        update(&reopened, 2);
        let expected = sorted_values(&reopened, &q);
        assert!(expected.contains(&3002));
        std::mem::forget(reopened);

        let reopened = Engine::builder().open(&dir).unwrap();
        assert_eq!(sorted_values(&reopened, &q), expected);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `create` is durable when it returns, whatever the log's fsync
    /// policy: a crash right after it (the log's unsynced tail lost with
    /// the process, nothing run in between) reopens to the created
    /// store. Before `create` synced the log through its catalog save, a
    /// group-commit policy could lose that save, and `open_on` returned
    /// `CatalogMissing`.
    #[test]
    fn a_store_opens_after_a_crash_right_after_create() {
        use cor_wal::FsyncPolicy;
        let generated = generate(&tiny());
        let q = RetrieveQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        let in_memory = Engine::builder()
            .pool_pages(16)
            .build(&standard(&generated));
        let expected = sorted_values(&in_memory.unwrap(), &q);
        let policies = (1..=16)
            .map(FsyncPolicy::EveryN)
            .chain([FsyncPolicy::Never]);
        for fsync in policies {
            let (disk, store) = mem_stores();
            let engine = Engine::builder()
                .pool_pages(16)
                .wal_config(WalConfig {
                    fsync,
                    ..WalConfig::default()
                })
                .create_on(disk.clone(), store.clone(), &standard(&generated))
                .unwrap();
            drop(engine);
            store.crash();
            let reopened = Engine::builder()
                .open_on(disk, store)
                .unwrap_or_else(|e| panic!("{fsync:?}: no store after create: {e}"));
            assert_eq!(sorted_values(&reopened, &q), expected, "{fsync:?}");
        }
    }

    /// The build is not in the log: recovery right after `create` redoes
    /// the catalog save and nothing else — page 0's new head, and each
    /// chain page's zero image and contents (three records for these
    /// stores' one-chain-page catalogs) — however large the store.
    #[test]
    fn recovery_right_after_create_replays_only_the_catalog_save() {
        for parent_card in [200, 1000] {
            let generated = generate(&Params {
                parent_card,
                ..tiny()
            });
            let (disk, store) = mem_stores();
            let engine = Engine::builder()
                .pool_pages(16)
                .create_on(disk.clone(), store.clone(), &standard(&generated))
                .unwrap();
            let blob = engine.durable.as_ref().unwrap().catalog.load().unwrap();
            let chain_pages = blob.len().div_ceil(cor_pagestore::MAX_RECORD - 4) as u64;
            let catalog_pages = 1 + chain_pages;
            let store_pages = engine.pool().num_pages();
            drop(engine);
            store.crash();
            let stats = cor_wal::recover(disk.as_ref(), store.as_ref()).unwrap();
            let redone = stats.images_applied + stats.deltas_applied;
            assert!(
                redone <= catalog_pages + chain_pages,
                "{parent_card} parents, {store_pages} pages: {redone} records redone \
                 for a {catalog_pages}-page catalog"
            );
            assert_eq!(stats.records_scanned, redone, "{parent_card} parents");
            Engine::builder().open_on(disk, store).unwrap();
        }
    }

    /// A crash at any write `create` makes leaves a store that does not
    /// open: the log holds nothing until the build is on the store, and
    /// page 0 holds no engine catalog until the save that ends `create`.
    #[test]
    fn a_crash_inside_create_leaves_no_store_that_opens() {
        use cor_pagestore::{FaultMode, FaultyDisk};
        let generated = generate(&tiny());
        let spec = standard(&generated);
        let create = |disk: &Arc<FaultyDisk<Arc<cor_pagestore::MemDisk>>>, store| {
            Engine::builder()
                .pool_pages(16)
                .cache(CacheConfig::default())
                .create_on(disk.clone(), store, &spec)
        };
        let dry = Arc::new(FaultyDisk::new(Arc::new(cor_pagestore::MemDisk::new())));
        create(&dry, Arc::new(cor_wal::MemLogStore::new())).unwrap();
        let writes = dry.writes_observed();
        assert!(writes > 16, "create wrote {writes} pages");

        let step = (writes / 40).max(1);
        let points = (1..=writes).step_by(step as usize).chain([writes]);
        for nth in points {
            let faulty = Arc::new(FaultyDisk::new(Arc::new(cor_pagestore::MemDisk::new())));
            let store = Arc::new(cor_wal::MemLogStore::new());
            faulty.arm(nth, FaultMode::CrashDrop);
            assert!(create(&faulty, store.clone()).is_err(), "write {nth}");
            store.crash();
            let medium = faulty.inner().clone();
            match Engine::builder().open_on(medium, store) {
                Err(CorError::CatalogMissing) => {}
                Err(e) => panic!("write {nth} of {writes}: {e}"),
                Ok(_) => panic!("write {nth} of {writes}: a half-built store opened"),
            }
        }
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
