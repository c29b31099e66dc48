//! Every engine the harness runs is constructed here and nowhere else,
//! through the lifecycle API only (`create` / `create_on` / `open`).

use complexobj::{CacheConfig, ClusterAssignment, CorError};
use cor_pagestore::MemDisk;
use cor_wal::{FsyncPolicy, MemLogStore, WalConfig};
use cor_workload::{Engine, EngineBuilder, EngineSpec, GeneratedDb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// Physical representation the strategy under test needs.
#[derive(Debug, Clone, Copy)]
pub enum Repr {
    Standard,
    /// Standard plus a unit cache of this many units (the paper's SizeCache).
    Cached(usize),
    Clustered,
}

/// Where pages and log records go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disk {
    /// `MemDisk` + `MemLogStore`, fsync `Never`: no syscalls at all.
    Mem,
    /// `FileDisk` + `FileLogStore` in a directory, fsync `EveryN(8)`.
    File,
}

#[derive(Debug, Clone, Copy)]
pub struct EngineDef {
    pub repr: Repr,
    pub pool_pages: usize,
    pub disk: Disk,
}

/// Flush policy of the durable workload. It must be the same on both
/// sides of any comparison, so it is a constant, not an option.
pub const DURABLE_FSYNC: FsyncPolicy = FsyncPolicy::EveryN(8);

fn builder(def: &EngineDef, metrics: bool) -> EngineBuilder {
    let fsync = match def.disk {
        Disk::Mem => FsyncPolicy::Never,
        Disk::File => DURABLE_FSYNC,
    };
    // Option structs are always completed from their defaults, so a field
    // added later does not break this (frozen) harness.
    #[allow(clippy::needless_update)]
    let wal_config = WalConfig {
        fsync,
        segment_bytes: 1 << 20,
        ..Default::default()
    };
    let b = Engine::builder()
        .pool_pages(def.pool_pages)
        .shards(1)
        .metrics(metrics)
        .wal_config(wal_config);
    match def.repr {
        Repr::Cached(capacity) => b.cache(CacheConfig {
            capacity,
            ..Default::default()
        }),
        Repr::Standard | Repr::Clustered => b,
    }
}

fn engine_spec(def: &EngineDef, generated: &GeneratedDb, seed: u64) -> EngineSpec {
    match def.repr {
        Repr::Standard | Repr::Cached(_) => EngineSpec::Standard(generated.spec.clone()),
        Repr::Clustered => {
            let parents: Vec<_> = generated
                .spec
                .parents
                .iter()
                .map(|p| (p.key, p.children.clone()))
                .collect();
            // Its own stream, so the clustering does not follow the
            // database contents or the query sequence.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5_7E12);
            let assignment = ClusterAssignment::random(&parents, &mut rng);
            EngineSpec::Clustered(generated.spec.clone(), assignment)
        }
    }
}

/// Create and bulk-load an engine. `dir` is required for [`Disk::File`]
/// and must not hold a store yet.
pub fn create(
    def: &EngineDef,
    generated: &GeneratedDb,
    seed: u64,
    metrics: bool,
    dir: Option<&Path>,
) -> Result<Engine, CorError> {
    let spec = engine_spec(def, generated, seed);
    let b = builder(def, metrics);
    match def.disk {
        Disk::Mem => b.create_on(
            Arc::new(MemDisk::new()),
            Arc::new(MemLogStore::new()),
            &spec,
        ),
        Disk::File => b.create(dir.expect("a durable engine needs a directory"), &spec),
    }
}

/// Reopen the durable engine `create` left in `dir` (recovery runs inside).
pub fn open(def: &EngineDef, metrics: bool, dir: &Path) -> Result<Engine, CorError> {
    builder(def, metrics).open(dir)
}
