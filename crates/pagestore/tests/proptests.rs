//! Property tests for the page store: slotted pages against a vector
//! model and batch inserts against one insert per record, the buffer pool
//! against a write-through model.

use cor_pagestore::{
    BufferPool, IoStats, PageBuf, PageMut, PageView, ReplacementPolicy, SlotId, MAX_RECORD,
    PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn arb_page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 0..300).prop_map(PageOp::Insert),
        1 => (0usize..40).prop_map(PageOp::Delete),
        1 => ((0usize..40), proptest::collection::vec(any::<u8>(), 0..300))
            .prop_map(|(i, d)| PageOp::Update(i, d)),
    ]
}

/// A page after `ops`: deletes leave dead slots, and deletes and growing
/// updates leave the dead-record space that forces a compaction.
fn shaped_page(ops: &[PageOp]) -> PageBuf {
    let mut buf = [0u8; PAGE_SIZE];
    let mut page = PageMut::new(&mut buf);
    page.init();
    let mut live: Vec<SlotId> = Vec::new();
    for op in ops {
        match op {
            PageOp::Insert(data) => live.extend(page.insert(data).ok()),
            PageOp::Delete(i) if !live.is_empty() => {
                let slot = live.swap_remove(i % live.len());
                page.delete(slot).unwrap();
            }
            PageOp::Update(i, data) if !live.is_empty() => {
                let _ = page.update(live[i % live.len()], data);
            }
            _ => {}
        }
    }
    buf
}

#[derive(Debug, Clone)]
enum PoolOp {
    Allocate(u32),
    Free(usize),
    Write(usize, u32),
    Read(usize),
}

fn arb_pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        3 => any::<u32>().prop_map(PoolOp::Allocate),
        1 => any::<usize>().prop_map(PoolOp::Free),
        2 => (any::<usize>(), any::<u32>()).prop_map(|(i, v)| PoolOp::Write(i, v)),
        2 => any::<usize>().prop_map(PoolOp::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A slotted page behaves like a map from slot to record under any
    /// sequence of inserts, deletes and updates.
    #[test]
    fn slotted_page_matches_model(ops in proptest::collection::vec(arb_page_op(), 1..80)) {
        let mut buf = [0u8; PAGE_SIZE];
        let mut page = PageMut::new(&mut buf);
        page.init();
        let mut model: HashMap<SlotId, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                PageOp::Insert(data) => {
                    if let Ok(slot) = page.insert(&data) {
                        // A granted slot must not clobber a live record.
                        prop_assert!(!model.contains_key(&slot), "slot {slot} reused while live");
                        model.insert(slot, data);
                    }
                }
                PageOp::Delete(i) => {
                    let slots: Vec<SlotId> = model.keys().copied().collect();
                    if let Some(&slot) = slots.get(i % slots.len().max(1)) {
                        prop_assert!(page.delete(slot).is_ok());
                        model.remove(&slot);
                    }
                }
                PageOp::Update(i, data) => {
                    let slots: Vec<SlotId> = model.keys().copied().collect();
                    if let Some(&slot) = slots.get(i % slots.len().max(1)) {
                        if page.update(slot, &data).is_ok() {
                            model.insert(slot, data);
                        }
                    }
                }
            }
            // Every model record is readable and equal.
            for (slot, data) in &model {
                prop_assert_eq!(page.view().record(*slot), Some(data.as_slice()));
            }
        }
        // The iterator agrees with the model exactly.
        let seen: HashMap<SlotId, Vec<u8>> =
            page.view().records().map(|(s, r)| (s, r.to_vec())).collect();
        prop_assert_eq!(seen, model);
    }

    /// A batch insert is one insert per record up to the first that
    /// fails: the same count, the same slots in the same order, and the
    /// same 2,048 bytes, whatever dead slots and fragmentation the page
    /// starts with and wherever in the batch a compaction falls.
    #[test]
    fn insert_many_equals_repeated_insert(
        ops in proptest::collection::vec(arb_page_op(), 0..80),
        records in proptest::collection::vec(
            prop_oneof![
                4 => proptest::collection::vec(any::<u8>(), 0..40),
                1 => proptest::collection::vec(any::<u8>(), 0..MAX_RECORD + 9),
            ],
            0..60,
        ),
    ) {
        let start = shaped_page(&ops);

        let mut want = start;
        let mut want_slots = Vec::new();
        let mut page = PageMut::new(&mut want);
        for r in &records {
            match page.insert(r) {
                Ok(slot) => want_slots.push(slot),
                Err(_) => break,
            }
        }

        let mut got = start;
        let mut got_slots = Vec::new();
        let placed = PageMut::new(&mut got).insert_many(&records, |slot| got_slots.push(slot));
        prop_assert_eq!(placed, want_slots.len());
        prop_assert_eq!(got_slots, want_slots);
        prop_assert!(got[..] == want[..], "page bytes differ");
    }

    /// The room test is the insert: `fits(len)` is `insert(..).is_ok()`
    /// on a copy of the page, whatever dead slots and fragmentation it
    /// holds, for every length up to past the largest record and at the
    /// edges of the page's free space.
    #[test]
    fn fits_equals_insert_is_ok(
        ops in proptest::collection::vec(arb_page_op(), 0..80),
        lens in proptest::collection::vec(
            prop_oneof![
                3 => 0usize..400,
                1 => 0usize..=MAX_RECORD + 8,
            ],
            1..40,
        ),
    ) {
        let start = shaped_page(&ops);
        let view = PageView::new(&start);
        // The edges: with and without a new slot's four bytes.
        let free = view.total_free();
        for len in lens.into_iter().chain(free.saturating_sub(5)..=free + 1) {
            let mut copy = start;
            let inserted = PageMut::new(&mut copy).insert(&vec![7u8; len]).is_ok();
            prop_assert_eq!(view.fits(len), inserted, "record of {} bytes", len);
        }
    }

    /// Compaction preserves all live records.
    #[test]
    fn compaction_preserves_records(records in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..120), 1..12)
    ) {
        let mut buf = [0u8; PAGE_SIZE];
        let mut page = PageMut::new(&mut buf);
        page.init();
        let mut live = Vec::new();
        for r in &records {
            if let Ok(slot) = page.insert(r) {
                live.push((slot, r.clone()));
            }
        }
        page.compact();
        for (slot, r) in &live {
            prop_assert_eq!(page.view().record(*slot), Some(r.as_slice()));
        }
    }

    /// The buffer pool is a faithful cache: data written through it is
    /// always read back identically, whatever the eviction pressure.
    #[test]
    fn buffer_pool_is_transparent(
        capacity in 1usize..8,
        writes in proptest::collection::vec((0usize..16, any::<u8>()), 1..60),
    ) {
        let pool = BufferPool::builder().capacity(capacity).build();
        let pids: Vec<_> = (0..16).map(|_| pool.allocate_page().unwrap()).collect();
        for &pid in &pids {
            pool.write(pid, |mut p| p.init()).unwrap();
        }
        let mut model: HashMap<u32, u8> = HashMap::new();
        for (i, byte) in writes {
            let pid = pids[i];
            pool.write(pid, |mut p| {
                let view = PageView::new(p.bytes_mut());
                let _ = view;
                // Store the byte in the page's flags word.
                p.set_flags(byte as u32);
            })
            .unwrap();
            model.insert(pid, byte);
            // Read back some page and check against the model.
            for (&mpid, &mbyte) in &model {
                let got = pool.read(mpid, |p| p.flags()).unwrap();
                prop_assert_eq!(got, mbyte as u32, "page {} corrupted", mpid);
            }
        }
    }

    /// Sharding is invisible to single-threaded callers: the same op
    /// sequence against a 1-shard and an 8-shard pool observes the same
    /// values at every read and leaves identical page contents (pages are
    /// tracked by allocation order — physical ids may differ because each
    /// shard keeps its own free list, and a sharded pool may hold a few
    /// spare ids on them).
    #[test]
    fn one_shard_and_eight_shards_agree(
        capacity in 8usize..16,
        ops in proptest::collection::vec(arb_pool_op(), 1..120),
    ) {
        let pool1 = BufferPool::builder().capacity(capacity).shards(1).build();
        let pool8 = BufferPool::builder().capacity(capacity).shards(8).build();
        // Live pages by allocation order: (pid in pool1, pid in pool8).
        let mut live: Vec<(u32, u32)> = Vec::new();
        for op in ops {
            match op {
                PoolOp::Allocate(v) => {
                    let a = pool1.allocate_page().unwrap();
                    let b = pool8.allocate_page().unwrap();
                    pool1.write(a, |mut p| { p.init(); p.set_flags(v); }).unwrap();
                    pool8.write(b, |mut p| { p.init(); p.set_flags(v); }).unwrap();
                    live.push((a, b));
                }
                PoolOp::Free(i) => {
                    if !live.is_empty() {
                        let (a, b) = live.swap_remove(i % live.len());
                        pool1.free_page(a).unwrap();
                        pool8.free_page(b).unwrap();
                    }
                }
                PoolOp::Write(i, v) => {
                    if !live.is_empty() {
                        let (a, b) = live[i % live.len()];
                        pool1.write(a, |mut p| p.set_flags(v)).unwrap();
                        pool8.write(b, |mut p| p.set_flags(v)).unwrap();
                    }
                }
                PoolOp::Read(i) => {
                    if !live.is_empty() {
                        let (a, b) = live[i % live.len()];
                        let va = pool1.read(a, |p| p.flags()).unwrap();
                        let vb = pool8.read(b, |p| p.flags()).unwrap();
                        prop_assert_eq!(va, vb, "read diverged at live index {}", i % live.len());
                    }
                }
            }
        }
        // Every live page's full contents agree byte for byte.
        for &(a, b) in &live {
            let bytes1 = pool1.read(a, |p| p.bytes().to_vec()).unwrap();
            let bytes8 = pool8.read(b, |p| p.bytes().to_vec()).unwrap();
            prop_assert_eq!(bytes1, bytes8, "contents diverged on pages {}/{}", a, b);
        }
        // No page is lost on either side: what is not live is free.
        for pool in [&pool1, &pool8] {
            prop_assert_eq!(live.len() + pool.free_pages(), pool.num_pages() as usize);
        }
    }

    /// Recycling is invisible to the replacement state at any stripe
    /// count: a query loop that frees its scratch pages transfers exactly
    /// the pages the same loop transfers when it leaks them. (The scratch
    /// pages are forced before they are dropped, as BFS forces its
    /// temporary — a freed frame is never written back, a leaked dirty
    /// one eventually is.)
    #[test]
    fn freeing_scratch_pages_costs_what_leaking_them_costs(
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        capacity in 8usize..24,
        rounds in proptest::collection::vec(
            (1usize..6, proptest::collection::vec(0usize..24, 0..12)),
            1..30,
        ),
    ) {
        let build = || {
            let pool = BufferPool::builder().capacity(capacity).shards(shards).build();
            let data: Vec<_> = (0..24).map(|_| pool.allocate_page().unwrap()).collect();
            pool.flush_and_clear().unwrap();
            (pool, data)
        };
        let (freeing, data) = build();
        let (leaking, _) = build();
        for (scratch, touched) in rounds {
            for (pool, free) in [(&freeing, true), (&leaking, false)] {
                let pids: Vec<_> =
                    (0..scratch).map(|_| pool.allocate_temp_page().unwrap()).collect();
                for &pid in &pids {
                    pool.write_temp(pid, |mut p| p.init()).unwrap();
                    pool.flush_page(pid).unwrap();
                }
                for &i in &touched {
                    pool.read(data[i], |_| ()).unwrap();
                }
                if free {
                    for &pid in &pids {
                        pool.free_page(pid).unwrap();
                    }
                }
            }
            prop_assert_eq!(freeing.stats().snapshot(), leaking.stats().snapshot());
        }
    }

    /// I/O monotonicity: rereading a just-read page is free; the number of
    /// physical reads never exceeds the number of logical reads.
    #[test]
    fn physical_reads_bounded_by_logical(
        capacity in 2usize..8,
        accesses in proptest::collection::vec(0usize..12, 1..50),
    ) {
        let stats = IoStats::new();
        let pool = BufferPool::builder().capacity(capacity).stats(Arc::clone(&stats)).build();
        let pids: Vec<_> = (0..12).map(|_| pool.allocate_page().unwrap()).collect();
        pool.flush_and_clear().unwrap();
        stats.reset();
        for &i in &accesses {
            pool.read(pids[i], |_| ()).unwrap();
        }
        prop_assert!(stats.reads() <= accesses.len() as u64);
        // Double access back-to-back is free.
        let before = stats.reads();
        pool.read(pids[accesses[0]], |_| ()).unwrap();
        pool.read(pids[accesses[0]], |_| ()).unwrap();
        prop_assert!(stats.reads() <= before + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `AioEngine::submit` + harvest is observationally a synchronous
    /// `read_page` loop for any request multiset (duplicates, arbitrary
    /// order), any queue depth, and any harvest interleaving: every
    /// completion delivers the exact page image, and the engine's run
    /// accounting matches the ticket with a peak bounded by the depth.
    #[test]
    fn aio_harvest_matches_sync_reads(
        depth in 1usize..9,
        picks in proptest::collection::vec((0usize..16, 0usize..64), 1..48),
    ) {
        use cor_pagestore::{AioConfig, AioEngine, DiskManager, MemDisk, PAGE_SIZE};

        let disk = Arc::new(MemDisk::new());
        let mut images = Vec::new();
        for i in 0..16u8 {
            let pid = disk.allocate_page().unwrap();
            let page = [i ^ 0xA5; PAGE_SIZE];
            disk.write_page(pid, &page).unwrap();
            images.push((pid, page));
        }
        let ids: Vec<_> = picks.iter().map(|&(i, _)| images[i].0).collect();

        let stats = IoStats::new();
        let engine = AioEngine::new(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            Arc::clone(&stats),
            AioConfig::with_depth(depth),
        );
        let ticket = engine.submit(&ids);
        let runs = ticket.num_runs() as u64;
        prop_assert_eq!(ticket.num_pages(), ids.len());
        prop_assert_eq!(stats.aio_submitted(), runs);

        // Harvest in an arbitrary interleaving drawn from the picks.
        let mut pending = ticket.into_completions();
        let mut order = picks.iter().map(|&(_, r)| r).cycle();
        while !pending.is_empty() {
            let k = order.next().unwrap() % pending.len();
            let c = pending.swap_remove(k);
            let mut buf = [0u8; PAGE_SIZE];
            c.wait_into(&mut buf).unwrap();
            let want = images.iter().find(|(p, _)| *p == c.page_id()).unwrap().1;
            prop_assert_eq!(buf, want, "page {} image", c.page_id());
        }
        prop_assert_eq!(stats.aio_completed(), runs);
        prop_assert!(stats.aio_in_flight_peak() <= depth.max(1) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every replacement policy is a transparent, fully accounted cache:
    /// arbitrary access sequences over a pool smaller than the page set
    /// always read back the exact stamps, the shard telemetry books every
    /// access as exactly one hit or one miss, and every miss is one
    /// physical read.
    #[test]
    fn every_policy_is_a_transparent_accounted_cache(
        capacity in 2usize..10,
        accesses in proptest::collection::vec(0usize..24, 1..120),
    ) {
        for policy in ReplacementPolicy::ALL {
            let stats = IoStats::new();
            let pool = BufferPool::builder()
                .capacity(capacity)
                .shards(1)
                .policy(policy)
                .telemetry(true)
                .stats(Arc::clone(&stats))
                .build();
            let pids: Vec<_> = (0..24).map(|_| pool.allocate_page().unwrap()).collect();
            for (i, &pid) in pids.iter().enumerate() {
                pool.write(pid, |mut p| {
                    p.init();
                    p.set_flags(0xC0DE_0000 | i as u32);
                })
                .unwrap();
            }
            pool.flush_and_clear().unwrap();
            stats.reset();
            let before: (u64, u64) = pool
                .telemetry()
                .unwrap()
                .iter()
                .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));

            for &i in &accesses {
                let got = pool.read(pids[i], |p| p.flags()).unwrap();
                prop_assert_eq!(got, 0xC0DE_0000 | i as u32, "policy {}", policy.name());
            }

            let after: (u64, u64) = pool
                .telemetry()
                .unwrap()
                .iter()
                .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
            let (hits, misses) = (after.0 - before.0, after.1 - before.1);
            let distinct = accesses.iter().collect::<std::collections::HashSet<_>>().len() as u64;
            prop_assert_eq!(hits + misses, accesses.len() as u64, "policy {}", policy.name());
            prop_assert_eq!(misses, stats.reads(), "policy {}", policy.name());
            // The first touch of each page is a compulsory miss under
            // every policy.
            prop_assert!(misses >= distinct, "policy {}", policy.name());
        }
    }
}
