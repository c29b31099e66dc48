//! Workload heat maps: sharded, lock-free, exponentially-decaying access
//! counters.
//!
//! The ROADMAP's dynamic re-clustering item needs *access-frequency*
//! statistics — which parents a workload actually traverses, which
//! clusters a DFSCLUST scan keeps re-reading, how skewed the traffic is —
//! exactly the input every reorganization policy in the dynamic-clustering
//! literature consumes. This module is that measurement layer: a
//! process-global [`HeatMap`] of `(class, id) → decaying counter` entries
//! fed from the strategy layer (parent visits, cluster-root scans).
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** Every feed site costs one relaxed [`AtomicBool`]
//!    load while the map is disabled (the default). Like
//!    [`phase`](crate::phase), the switch is a process global because the
//!    feeding strategy loops have no handle-plumbing path from the
//!    engine.
//! 2. **Lock-free when on.** A touch is a hash, a bounded linear probe
//!    over `(AtomicU64 key, AtomicU64 count)` slots, and one relaxed
//!    `fetch_add`. Insertion claims an empty slot by CAS; a full shard
//!    bumps an overflow counter instead of blocking or allocating.
//! 3. **Decay never re-orders.** [`HeatMap::decay_tick`] multiplies every
//!    counter by `alpha/2^16` (fixed-point). The map `c ↦ ⌊c·α⌋/2^16` is
//!    monotone, so hotter-than stays hotter-than across any number of
//!    ticks, and for `α < 2^16` every counter reaches zero — both
//!    properties are proptest-pinned in `tests/heat.rs`.
//!
//! Counters never perturb the paper's I/O accounting: touches are pure
//! memory operations on the side table; nothing here reads or writes
//! pages.

use crate::registry::{labels, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// What an id in the heat map identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum HeatClass {
    /// A complex object: the parent OID key a retrieve traversed.
    Parent = 0,
    /// A cluster root scanned by DFSCLUST (the object whose cluster range
    /// the scan covered).
    ClusterRoot = 1,
}

impl HeatClass {
    /// Every class, in tag order.
    pub const ALL: [HeatClass; 2] = [HeatClass::Parent, HeatClass::ClusterRoot];

    /// Stable snake_case name (used by exporters and reports).
    pub fn name(self) -> &'static str {
        match self {
            HeatClass::Parent => "parent",
            HeatClass::ClusterRoot => "cluster_root",
        }
    }
}

/// Ids are packed with the class into one nonzero `u64` slot key: the
/// class tag plus one in the top byte, the id in the low 56 bits. Key 0
/// therefore never collides with a real entry and marks an empty slot.
const ID_BITS: u32 = 56;
/// Largest id a heat key can carry.
pub const MAX_HEAT_ID: u64 = (1 << ID_BITS) - 1;

fn pack(class: HeatClass, id: u64) -> u64 {
    ((class as u64 + 1) << ID_BITS) | (id & MAX_HEAT_ID)
}

fn unpack(key: u64) -> Option<(HeatClass, u64)> {
    let tag = (key >> ID_BITS) as u8;
    let class = *HeatClass::ALL.get(tag.checked_sub(1)? as usize)?;
    Some((class, key & MAX_HEAT_ID))
}

/// Fibonacci hash: spreads sequential ids across the table.
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct HeatSlot {
    key: AtomicU64,
    count: AtomicU64,
}

struct HeatShard {
    slots: Vec<HeatSlot>,
}

impl HeatShard {
    fn new(slots: usize) -> Self {
        HeatShard {
            slots: (0..slots)
                .map(|_| HeatSlot {
                    key: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Add `n` to `key`'s counter, inserting it if absent. Returns false
    /// when every probed slot belongs to someone else (shard full).
    fn touch(&self, key: u64, n: u64) -> bool {
        let len = self.slots.len() as u64;
        let start = hash(key) % len;
        for i in 0..len {
            let slot = &self.slots[((start + i) % len) as usize];
            let k = slot.key.load(Ordering::Relaxed);
            if k == key {
                slot.count.fetch_add(n, Ordering::Relaxed);
                return true;
            }
            if k == 0 {
                match slot
                    .key
                    .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        slot.count.fetch_add(n, Ordering::Relaxed);
                        return true;
                    }
                    Err(existing) if existing == key => {
                        slot.count.fetch_add(n, Ordering::Relaxed);
                        return true;
                    }
                    Err(_) => continue, // raced another insert; keep probing
                }
            }
        }
        false
    }
}

/// Apply one decay tick to a single counter value: fixed-point multiply
/// by `alpha_q16 / 2^16`. Pure so the order-preservation and
/// convergence properties can be tested directly.
#[inline]
pub fn decay_value(count: u64, alpha_q16: u64) -> u64 {
    ((count as u128 * alpha_q16 as u128) >> 16) as u64
}

/// The default decay coefficient (Q16 fixed point): `0.5`, i.e. a
/// half-life of exactly one tick.
pub const DEFAULT_ALPHA_Q16: u64 = 1 << 15;

/// Ticks for a counter to halve under `alpha_q16` (∞ when `alpha >= 1`).
pub fn half_life_ticks(alpha_q16: u64) -> f64 {
    let alpha = alpha_q16 as f64 / 65536.0;
    if alpha >= 1.0 || alpha <= 0.0 {
        return f64::INFINITY;
    }
    (0.5f64).ln() / alpha.ln()
}

/// A sharded, fixed-capacity table of decaying access counters.
pub struct HeatMap {
    shards: Vec<HeatShard>,
    /// Touches dropped because the owning shard had no free slot.
    overflow: AtomicU64,
    /// Touches recorded (including overflowed ones).
    touches: AtomicU64,
    /// Decay ticks applied so far.
    ticks: AtomicU64,
}

impl std::fmt::Debug for HeatMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeatMap")
            .field("shards", &self.shards.len())
            .field("touches", &self.touches.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for HeatMap {
    fn default() -> Self {
        Self::new()
    }
}

impl HeatMap {
    /// Default geometry: 8 shards × 512 slots (4096 tracked keys).
    pub fn new() -> Self {
        Self::with_geometry(8, 512)
    }

    /// A map with `shards` stripes of `slots` keys each.
    pub fn with_geometry(shards: usize, slots: usize) -> Self {
        assert!(shards > 0 && slots > 0, "heat map needs capacity");
        HeatMap {
            shards: (0..shards).map(|_| HeatShard::new(slots)).collect(),
            overflow: AtomicU64::new(0),
            touches: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    /// Record `n` accesses of `(class, id)`. Wait-free apart from the
    /// bounded probe; a full shard counts overflow instead of blocking.
    pub fn touch_n(&self, class: HeatClass, id: u64, n: u64) {
        let key = pack(class, id);
        let shard = &self.shards[(hash(key) >> 32) as usize % self.shards.len()];
        self.touches.fetch_add(n, Ordering::Relaxed);
        if !shard.touch(key, n) {
            self.overflow.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one access of `(class, id)`.
    #[inline]
    pub fn touch(&self, class: HeatClass, id: u64) {
        self.touch_n(class, id, 1);
    }

    /// Multiply every counter by `alpha_q16 / 2^16` — order-preserving,
    /// and convergent to zero for any `alpha_q16 < 2^16`. Entries that
    /// reach zero keep their slot (re-touching them is cheaper than
    /// compacting); [`reset`](Self::reset) reclaims everything.
    pub fn decay_tick(&self, alpha_q16: u64) {
        for shard in &self.shards {
            for slot in &shard.slots {
                if slot.key.load(Ordering::Relaxed) == 0 {
                    continue;
                }
                // Racing touches between the load and the store may be
                // shrunk by one tick's decay — heat is a statistic, not a
                // ledger, and the bias is uniformly downward.
                let c = slot.count.load(Ordering::Relaxed);
                if c != 0 {
                    slot.count
                        .store(decay_value(c, alpha_q16), Ordering::Relaxed);
                }
            }
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry and zero the lifetime counters (between measured
    /// runs; concurrent touches during a reset can survive it partially).
    pub fn reset(&self) {
        for shard in &self.shards {
            for slot in &shard.slots {
                slot.key.store(0, Ordering::Relaxed);
                slot.count.store(0, Ordering::Relaxed);
            }
        }
        self.overflow.store(0, Ordering::Relaxed);
        self.touches.store(0, Ordering::Relaxed);
        self.ticks.store(0, Ordering::Relaxed);
    }

    /// Touches recorded over the map's lifetime.
    pub fn touches(&self) -> u64 {
        self.touches.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of every live entry plus the roll-up counters.
    pub fn report(&self) -> HeatReport {
        let mut entries = Vec::new();
        for shard in &self.shards {
            for slot in &shard.slots {
                let key = slot.key.load(Ordering::Relaxed);
                if key == 0 {
                    continue;
                }
                let count = slot.count.load(Ordering::Relaxed);
                if count == 0 {
                    continue; // fully decayed
                }
                if let Some((class, id)) = unpack(key) {
                    entries.push(HeatEntry { class, id, count });
                }
            }
        }
        // Hottest first; ties broken by id so reports are deterministic.
        entries.sort_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
        HeatReport {
            entries,
            touches: self.touches.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            ticks: self.ticks.load(Ordering::Relaxed),
        }
    }
}

/// One live heat-map entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeatEntry {
    /// What the id identifies.
    pub class: HeatClass,
    /// The identifier (parent key or cluster root).
    pub id: u64,
    /// The decayed access count.
    pub count: u64,
}

/// A point-in-time view of a [`HeatMap`]: every live entry hottest-first,
/// plus lifetime touch/overflow/tick counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatReport {
    /// Live entries, hottest first (ties by id).
    pub entries: Vec<HeatEntry>,
    /// Touches recorded over the map's lifetime.
    pub touches: u64,
    /// Touches dropped because a shard had no free slot.
    pub overflow: u64,
    /// Decay ticks applied.
    pub ticks: u64,
}

impl HeatReport {
    /// The `k` hottest entries of `class`.
    pub fn top_k(&self, class: HeatClass, k: usize) -> Vec<HeatEntry> {
        self.entries
            .iter()
            .filter(|e| e.class == class)
            .take(k)
            .copied()
            .collect()
    }

    /// Total decayed heat held by `class`.
    pub fn total(&self, class: HeatClass) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.class == class)
            .map(|e| e.count)
            .sum()
    }

    /// Skew summary: the fraction of `class`'s total heat held by its
    /// `k` hottest keys — near `k/n` for uniform traffic, near 1.0 for a
    /// concentrated (Zipf) workload. 0.0 when the class is empty.
    pub fn top_share(&self, class: HeatClass, k: usize) -> f64 {
        let total = self.total(class);
        if total == 0 {
            return 0.0;
        }
        let top: u64 = self.top_k(class, k).iter().map(|e| e.count).sum();
        top as f64 / total as f64
    }

    /// Export the report into `snapshot` as the `cor_heat_*` metric
    /// family set: per-class touch totals and tracked-key gauges, the
    /// lifetime overflow/tick counters, the configured half-life, and
    /// one `cor_heat_top` gauge per top-`k` entry per class.
    pub fn push_to(&self, snapshot: &mut MetricsSnapshot, k: usize, alpha_q16: u64) {
        for class in HeatClass::ALL {
            let lbls = labels(&[("class", class.name())]);
            snapshot.push_counter(
                "cor_heat_touches_total",
                "decayed access heat held per key class",
                lbls.clone(),
                self.total(class),
            );
            snapshot.push_gauge(
                "cor_heat_tracked_keys",
                "live heat-map entries per key class",
                lbls,
                self.entries.iter().filter(|e| e.class == class).count() as f64,
            );
        }
        snapshot.push_counter(
            "cor_heat_overflow_total",
            "touches dropped because a heat shard was full",
            labels(&[]),
            self.overflow,
        );
        snapshot.push_counter(
            "cor_heat_decay_ticks_total",
            "decay ticks applied to the heat map",
            labels(&[]),
            self.ticks,
        );
        snapshot.push_gauge(
            "cor_heat_half_life_ticks",
            "ticks for a counter to halve under the configured decay",
            labels(&[]),
            half_life_ticks(alpha_q16),
        );
        for class in HeatClass::ALL {
            for (rank, e) in self.top_k(class, k).iter().enumerate() {
                snapshot.push_gauge(
                    "cor_heat_top",
                    "decayed count of the k hottest keys per class",
                    labels(&[
                        ("class", class.name()),
                        ("rank", &rank.to_string()),
                        ("id", &e.id.to_string()),
                    ]),
                    e.count as f64,
                );
            }
        }
    }
}

/// Process-wide switch. Off by default: every feed site is one relaxed
/// load and nothing else.
static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<HeatMap> = OnceLock::new();

/// Whether heat collection is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn heat collection on or off for the whole process. The global map
/// keeps its contents across off/on transitions; call
/// [`global`]`().reset()` to start a fresh measurement window.
pub fn enable(on: bool) {
    if on {
        let _ = global();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global heat map (created on first use).
pub fn global() -> &'static HeatMap {
    GLOBAL.get_or_init(HeatMap::new)
}

/// Record one access of `(class, id)` in the global map — the feed-site
/// entry point. A no-op costing one relaxed load while disabled.
#[inline]
pub fn touch(class: HeatClass, id: u64) {
    if enabled() {
        global().touch(class, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touches_accumulate_per_key() {
        let m = HeatMap::with_geometry(2, 64);
        m.touch(HeatClass::Parent, 7);
        m.touch(HeatClass::Parent, 7);
        m.touch_n(HeatClass::Parent, 9, 5);
        m.touch(HeatClass::ClusterRoot, 7); // same id, different class
        let r = m.report();
        assert_eq!(r.touches, 8);
        let top = r.top_k(HeatClass::Parent, 2);
        assert_eq!((top[0].id, top[0].count), (9, 5));
        assert_eq!((top[1].id, top[1].count), (7, 2));
        assert_eq!(r.top_k(HeatClass::ClusterRoot, 8).len(), 1);
        assert_eq!(r.total(HeatClass::Parent), 7);
    }

    #[test]
    fn decay_halves_and_preserves_order() {
        let m = HeatMap::with_geometry(1, 64);
        m.touch_n(HeatClass::Parent, 1, 1000);
        m.touch_n(HeatClass::Parent, 2, 10);
        m.decay_tick(DEFAULT_ALPHA_Q16);
        let r = m.report();
        assert_eq!(r.ticks, 1);
        let top = r.top_k(HeatClass::Parent, 2);
        assert_eq!((top[0].id, top[0].count), (1, 500));
        assert_eq!((top[1].id, top[1].count), (2, 5));
        // Enough ticks drive everything to zero and out of the report.
        for _ in 0..16 {
            m.decay_tick(DEFAULT_ALPHA_Q16);
        }
        assert!(m.report().entries.is_empty());
    }

    #[test]
    fn full_shard_overflows_instead_of_blocking() {
        let m = HeatMap::with_geometry(1, 4);
        for id in 0..64 {
            m.touch(HeatClass::Parent, id);
        }
        let r = m.report();
        assert_eq!(r.entries.len(), 4, "capacity bounds tracked keys");
        assert_eq!(r.touches, 64);
        assert_eq!(r.overflow, 60);
    }

    #[test]
    fn keys_pack_and_unpack() {
        for class in HeatClass::ALL {
            for id in [0u64, 1, MAX_HEAT_ID] {
                let key = pack(class, id);
                assert_ne!(key, 0, "real keys never alias the empty slot");
                assert_eq!(unpack(key), Some((class, id)));
            }
        }
        assert_eq!(unpack(0), None);
    }

    #[test]
    fn top_share_separates_skew_from_uniform() {
        let uniform = HeatMap::with_geometry(4, 256);
        let skewed = HeatMap::with_geometry(4, 256);
        for id in 0..100u64 {
            uniform.touch_n(HeatClass::Parent, id, 10);
            // 90% of skewed traffic lands on 5 keys.
            let n = if id < 5 { 180 } else { 1 };
            skewed.touch_n(HeatClass::Parent, id, n);
        }
        let u = uniform.report().top_share(HeatClass::Parent, 5);
        let s = skewed.report().top_share(HeatClass::Parent, 5);
        assert!(u < 0.10, "uniform top-5 share {u}");
        assert!(s > 0.85, "skewed top-5 share {s}");
    }

    #[test]
    fn global_touch_is_inert_when_disabled() {
        // Other tests may have enabled the global switch; force it off
        // and prove the feed-site entry point records nothing.
        enable(false);
        let before = global().touches();
        touch(HeatClass::ClusterRoot, 3);
        assert_eq!(global().touches(), before);
    }

    #[test]
    fn concurrent_touches_are_exact() {
        let m = HeatMap::with_geometry(8, 512);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        m.touch(HeatClass::Parent, (t * 31 + i) % 97);
                    }
                });
            }
        });
        let r = m.report();
        assert_eq!(r.touches, 40_000);
        assert_eq!(r.overflow, 0);
        assert_eq!(r.entries.iter().map(|e| e.count).sum::<u64>(), 40_000);
        assert_eq!(r.entries.len(), 97);
    }

    #[test]
    fn half_life_matches_alpha() {
        assert!((half_life_ticks(DEFAULT_ALPHA_Q16) - 1.0).abs() < 1e-9);
        assert!(half_life_ticks(1 << 16).is_infinite());
        let hl = half_life_ticks(58982); // ~0.9
        assert!(hl > 6.0 && hl < 7.0, "alpha 0.9 halves in ~6.6 ticks: {hl}");
    }
}
