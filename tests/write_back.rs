//! No figure writes back a page that did not change.
//!
//! A write-back whose bytes equal the page the store already holds is a
//! frame some write pin dirtied without changing a byte. Each one is a
//! page transfer the paper's yardstick charges for nothing, and it lands
//! on exactly the strategies whose maintenance cost Fig 4's caching
//! region is about. These tests run the smoke-scale points of every
//! cached representation the figures run — DFSCACHE with outside and
//! inside placement, SMART, and the procedural outside-value,
//! outside-OID and inside caches — at Pr(UPDATE) 0 and 0.5, over a store
//! that counts such write-backs, and require none.

use complexobj::procedural::ProcCaching;
use complexobj::{CacheConfig, CachePlacement, Strategy};
use cor_pagestore::{DiskError, DiskManager, MemDisk, PageBuf, PageId, PAGE_SIZE};
use cor_workload::{
    generate, generate_matrix, generate_sequence, Engine, EngineBuilder, EngineSpec, Params,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A `MemDisk` that counts write-backs of pages already written once,
/// and among them those whose bytes equal the stored page.
#[derive(Default)]
struct RewriteCounter {
    inner: MemDisk,
    written: Mutex<HashSet<PageId>>,
    rewrites: AtomicU64,
    unchanged: AtomicU64,
}

impl DiskManager for RewriteCounter {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        if !self.written.lock().unwrap().insert(id) {
            self.rewrites.fetch_add(1, Ordering::Relaxed);
            let mut stored = [0u8; PAGE_SIZE];
            self.inner.read_page(id, &mut stored)?;
            if stored[..] == buf[..] {
                self.unchanged.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId, DiskError> {
        self.inner.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
}

/// Run `strategy` over the point's sequence on the engine `build` makes
/// over a counting store, flush, and return `(rewrites, unchanged)`.
fn write_backs(
    p: &Params,
    strategy: Strategy,
    build: impl FnOnce(EngineBuilder) -> Engine,
) -> (u64, u64) {
    let disk = Arc::new(RewriteCounter::default());
    let engine = build(Engine::builder().disk(disk.clone()));
    engine
        .run_sequence(strategy, &generate_sequence(p))
        .expect("the point runs");
    engine.pool().flush_all().unwrap();
    (
        disk.rewrites.load(Ordering::Relaxed),
        disk.unchanged.load(Ordering::Relaxed),
    )
}

#[test]
fn no_cached_representation_writes_back_an_unchanged_page() {
    for pr_update in [0.0, 0.5] {
        let p = Params {
            pr_update,
            ..Params::scaled(0.05)
        };
        let generated = generate(&p);
        let matrix = generate_matrix(&p);
        let mut runs = Vec::new();
        for strategy in [Strategy::DfsCache, Strategy::Smart] {
            let run = write_backs(&p, strategy, |b| {
                b.build_workload(&p, &generated, strategy).unwrap()
            });
            runs.push((format!("{strategy:?}"), run));
        }
        let inside = write_backs(&p, Strategy::DfsCache, |b| {
            b.pool_pages(p.buffer_pages)
                .cache(CacheConfig {
                    capacity: p.size_cache,
                    placement: CachePlacement::Inside,
                    ..CacheConfig::default()
                })
                .build(&EngineSpec::Standard(generated.spec.clone()))
                .unwrap()
        });
        runs.push(("DfsCache inside".into(), inside));
        for caching in [
            ProcCaching::OutsideValues(p.size_cache),
            ProcCaching::OutsideOids(p.size_cache),
            ProcCaching::InsideValues(p.size_cache),
        ] {
            // Procedural engines ignore the strategy; DFS stands in.
            let run = write_backs(&p, Strategy::Dfs, |b| {
                b.pool_pages(p.buffer_pages)
                    .build(&EngineSpec::Procedural(
                        matrix.proc_scan_spec.clone(),
                        caching,
                    ))
                    .unwrap()
            });
            runs.push((format!("{caching:?}"), run));
        }
        for (name, (rewrites, unchanged)) in runs {
            assert!(
                rewrites > 0,
                "{name} at Pr(UPDATE) {pr_update} rewrote no page"
            );
            assert_eq!(
                unchanged, 0,
                "{name} at Pr(UPDATE) {pr_update}: {unchanged} of {rewrites} \
                 write-backs were of an unchanged page"
            );
        }
    }
}
