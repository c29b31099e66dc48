//! Frame replacement policies and the per-shard recency state they
//! maintain.
//!
//! Each buffer-pool shard owns one `ReplacementState`; the intrusive
//! recency list, visited bits and eviction hand are all shard-local, so
//! shards make eviction decisions without touching any shared state.
//! With a single shard the eviction sequence is exactly the one the
//! unsharded pool produced, which is what keeps the paper's I/O counts
//! byte-identical in single-shard mode.
//!
//! # Two policies, one list
//!
//! Order is kept in one intrusive doubly-linked list over frame indices
//! (`prev`/`next` arrays — no allocation per operation), head = coldest:
//!
//! * **LRU** (the default, for paper fidelity) moves a frame to the
//!   tail on every touch. The victim is the first unpinned frame from
//!   the head, so eviction is O(1) plus the number of pinned frames
//!   skipped.
//! * **SIEVE** keeps *insertion* order and never reorders; a moving hand
//!   walks from the oldest end clearing visited bits and evicts the
//!   first unvisited unpinned frame. The hand survives across
//!   evictions, which is what makes SIEVE scan-resistant: one-touch
//!   scan pages are swept out while re-referenced pages (visited bit
//!   set) get exactly one reprieve per lap.
//!
//! The two differ where the paper's clustering verdicts are made:
//! DFSCLUST's cluster scan and its foreign-cluster probes compete for
//! the buffer, and SIEVE keeps the re-probed pages. `ablation`'s
//! Ablation 3 (pinned in `results/ablation.txt`) runs Fig 5's sweep and
//! Fig 7's two cases under both policies. FIFO, CLOCK and 2Q shipped
//! once and were removed: the first two tracked LRU and 2Q tracked SIEVE
//! to the digit on every flood and retention leg (DESIGN.md §14). Their
//! catalog tags stay retired, never reused.
//!
//! Eviction-order compatibility: the pre-list LRU victim was the minimum
//! `last_used` stamp among unpinned frames, ties broken by the lowest
//! frame index (all stamps start at 0). The list is initialised in
//! frame-index order and moved-to-tail on exactly the events that used
//! to stamp, so the victim sequence is identical — asserted by the
//! stamp-model regression test below.

/// "No frame" marker for the intrusive list links and the SIEVE hand.
const NIL: usize = usize::MAX;

/// Frame replacement policy. The paper does not name INGRES 5.0's policy;
/// LRU is the era-appropriate default, and SIEVE is the scan-resistant
/// alternative. The DFS/BFS ordering does not hinge on the choice, but
/// the clustering verdicts do: under SIEVE, Fig 5's DFSCLUST/BFS
/// crossover moves up a ShareFactor and Fig 7's DFSCLUST/BFS ratios fall
/// (Ablation 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least recently used unpinned frame (default).
    #[default]
    Lru,
    /// FIFO insertion order with a moving eviction hand that clears
    /// visited bits but never reorders (SIGMETRICS '24) — scan-resistant
    /// and simpler than LRU.
    Sieve,
}

impl ReplacementPolicy {
    /// Every policy, in the canonical bench/report order.
    pub const ALL: [ReplacementPolicy; 2] = [ReplacementPolicy::Lru, ReplacementPolicy::Sieve];

    /// Stable lower-case name used in metrics labels and JSON stamps.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Sieve => "sieve",
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Recency bookkeeping for the frames of one shard.
#[derive(Debug)]
pub(crate) struct ReplacementState {
    /// Intrusive list links: LRU recency order or SIEVE insertion order.
    prev: Vec<usize>,
    next: Vec<usize>,
    /// The coldest / oldest frame.
    head: usize,
    /// The hottest / newest frame.
    tail: usize,
    /// SIEVE visited bits (unused under LRU).
    visited: Vec<bool>,
    /// SIEVE hand: the next list node to examine (`NIL` = wrap to the
    /// oldest end). Never reset by evictions — that persistence is the
    /// algorithm.
    sieve_hand: usize,
}

impl ReplacementState {
    pub(crate) fn new(capacity: usize) -> Self {
        let mut s = ReplacementState {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            visited: vec![false; capacity],
            sieve_hand: NIL,
        };
        s.chain_in_index_order();
        s
    }

    /// Link every frame in index order — the order the pre-list stamp
    /// model filled a cold pool (all stamps 0, ties broken by lowest
    /// index).
    fn chain_in_index_order(&mut self) {
        let n = self.prev.len();
        for i in 0..n {
            self.prev[i] = if i == 0 { NIL } else { i - 1 };
            self.next[i] = if i + 1 == n { NIL } else { i + 1 };
        }
        (self.head, self.tail) = if n == 0 { (NIL, NIL) } else { (0, n - 1) };
    }

    /// Unlink frame `i`. The SIEVE hand slides to the next node first so
    /// it never dangles.
    fn detach(&mut self, i: usize) {
        if self.sieve_hand == i {
            self.sieve_hand = self.next[i];
        }
        let (p, n) = (self.prev[i], self.next[i]);
        if p != NIL {
            self.next[p] = n;
        }
        if n != NIL {
            self.prev[n] = p;
        }
        if self.head == i {
            self.head = n;
        }
        if self.tail == i {
            self.tail = p;
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
    }

    /// Append frame `i` at the hot end.
    fn push_back(&mut self, i: usize) {
        self.prev[i] = self.tail;
        self.next[i] = NIL;
        if self.tail != NIL {
            self.next[self.tail] = i;
        } else {
            self.head = i;
        }
        self.tail = i;
    }

    /// A resident page was touched.
    pub(crate) fn on_hit(&mut self, idx: usize, policy: ReplacementPolicy) {
        match policy {
            ReplacementPolicy::Lru => {
                self.detach(idx);
                self.push_back(idx);
            }
            ReplacementPolicy::Sieve => self.visited[idx] = true,
        }
    }

    /// A page was loaded (or allocated) into frame `idx`. Both policies
    /// admit at the hot end; SIEVE inserts unvisited — a page must prove
    /// reuse before the hand spares it.
    pub(crate) fn on_load(&mut self, idx: usize) {
        self.visited[idx] = false;
        self.detach(idx);
        self.push_back(idx);
    }

    /// Choose a victim frame among those for which `evictable` holds
    /// (i.e. unpinned), or `None` if every frame is pinned.
    pub(crate) fn pick_victim(
        &mut self,
        policy: ReplacementPolicy,
        evictable: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        match policy {
            // Coldest unpinned frame from the list head; the list *is*
            // the stamp order, so this matches the pre-list min_by_key
            // scan victim-for-victim. O(1) in the common case: only
            // pinned frames are ever skipped.
            ReplacementPolicy::Lru => {
                let mut i = self.head;
                while i != NIL {
                    if evictable(i) {
                        return Some(i);
                    }
                    i = self.next[i];
                }
                None
            }
            ReplacementPolicy::Sieve => {
                // The hand walks oldest → newest, clearing visited bits,
                // and keeps its position across calls and evictions.
                // Pinned frames are skipped without clearing (a pin is
                // active use, not a sweepable reference). Two laps
                // suffice: the first clears visited bits, the second
                // must find a victim unless everything is pinned.
                for _ in 0..2 * self.prev.len() {
                    let i = if self.sieve_hand == NIL {
                        self.head
                    } else {
                        self.sieve_hand
                    };
                    if i == NIL {
                        return None;
                    }
                    self.sieve_hand = self.next[i];
                    if !evictable(i) {
                        continue;
                    }
                    if self.visited[i] {
                        self.visited[i] = false;
                        continue;
                    }
                    return Some(i);
                }
                None
            }
        }
    }

    /// Forget all recency state (pool cold start).
    pub(crate) fn reset(&mut self) {
        self.chain_in_index_order();
        self.visited.fill(false);
        self.sieve_hand = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-list LRU implementation: per-frame stamps, victim =
    /// minimum stamp among unpinned frames (ties → lowest index).
    struct StampModel {
        last_used: Vec<u64>,
    }

    impl StampModel {
        fn new(n: usize) -> Self {
            StampModel {
                last_used: vec![0; n],
            }
        }
        fn touch(&mut self, idx: usize, tick: u64) {
            self.last_used[idx] = tick;
        }
        fn pick_victim(&self, n: usize, evictable: impl Fn(usize) -> bool) -> Option<usize> {
            (0..n)
                .filter(|&i| evictable(i))
                .min_by_key(|&i| self.last_used[i])
        }
    }

    /// Tiny deterministic PRNG (xorshift) — no dev-dependency needed.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The intrusive list must reproduce the legacy stamp model's victim
    /// sequence exactly — this is what keeps fig3 byte-identical.
    #[test]
    fn intrusive_list_matches_legacy_stamp_model() {
        let policy = ReplacementPolicy::Lru;
        let n = 7;
        let mut state = ReplacementState::new(n);
        let mut model = StampModel::new(n);
        let mut rng = Rng(0x5eed_c0de);
        for step in 0..2000 {
            // The stamp model's clock: one tick per pin.
            let tick = step + 1;
            match rng.below(3) {
                0 => {
                    // Touch a resident frame.
                    let idx = rng.below(n);
                    state.on_hit(idx, policy);
                    model.touch(idx, tick);
                }
                1 => {
                    // Fault: evict a victim under a random pin mask,
                    // then load into it.
                    let mask = rng.next();
                    let evictable = |i: usize| mask & (1 << i) != 0;
                    let got = state.pick_victim(policy, evictable);
                    let want = model.pick_victim(n, evictable);
                    assert_eq!(got, want, "step {step}");
                    if let Some(v) = got {
                        state.on_load(v);
                        model.touch(v, tick);
                    }
                }
                _ => {
                    // Occasionally cold-start both.
                    if rng.below(50) == 0 {
                        state.reset();
                        model.last_used.fill(0);
                    }
                }
            }
        }
    }

    fn fill(state: &mut ReplacementState, n: usize) {
        for i in 0..n {
            state.on_load(i);
        }
    }

    #[test]
    fn sieve_spares_visited_frames_one_lap() {
        let p = ReplacementPolicy::Sieve;
        let n = 4;
        let mut s = ReplacementState::new(n);
        fill(&mut s, n);
        // Re-reference frames 0 and 1; 2 and 3 stay one-touch.
        for i in [0, 1] {
            s.on_hit(i, p);
        }
        // The hand clears 0 and 1, then evicts the first unvisited frame.
        assert_eq!(s.pick_victim(p, |_| true), Some(2));
        // Hand persists: the next victim continues from where it stopped.
        assert_eq!(s.pick_victim(p, |_| true), Some(3));
        // 0 and 1 spent their reprieve; with no new touches they go next.
        assert_eq!(s.pick_victim(p, |_| true), Some(0));
    }

    #[test]
    fn sieve_skips_pinned_without_clearing() {
        let p = ReplacementPolicy::Sieve;
        let n = 3;
        let mut s = ReplacementState::new(n);
        fill(&mut s, n);
        s.on_hit(0, p);
        // Frame 0 pinned: skipped, bit intact; 1 is the first unvisited.
        assert_eq!(s.pick_victim(p, |i| i != 0), Some(1));
        assert!(s.visited[0], "pinned frame keeps its visited bit");
    }

    #[test]
    fn reset_restores_cold_index_order() {
        for p in ReplacementPolicy::ALL {
            let n = 5;
            let mut s = ReplacementState::new(n);
            fill(&mut s, n);
            s.on_hit(3, p);
            s.reset();
            // A cold pool fills frames in index order under every policy.
            for want in 0..n {
                assert_eq!(s.pick_victim(p, |_| true), Some(want), "policy {p:?}");
                s.on_load(want);
            }
        }
    }

    /// Property tests: pins are inviolable under every policy, and
    /// SIEVE matches an independently written reference model (plain
    /// `Vec` state, no intrusive list, no `NIL` encoding)
    /// event-for-event over arbitrary access/pin/unpin interleavings.
    mod prop {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{HashMap, HashSet};

        /// Page universe — larger than any generated capacity, so every
        /// sequence long enough to matter forces evictions.
        const PAGES: u32 = 24;

        #[derive(Debug, Clone)]
        enum Op {
            Access(u32),
            Pin(u32),
            Unpin(u32),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                6 => (0..PAGES).prop_map(Op::Access),
                1 => (0..PAGES).prop_map(Op::Pin),
                1 => (0..PAGES).prop_map(Op::Unpin),
            ]
        }

        /// What one op did to the cache — compared across models, so two
        /// models agree exactly when their hit, victim-frame and stall
        /// sequences are identical.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Event {
            Hit(usize),
            Load {
                frame: usize,
                evicted: Option<u32>,
            },
            /// Every frame pinned: the fault cannot be served.
            Stall,
            /// Pin/unpin bookkeeping only.
            Noop,
        }

        trait PolicyModel {
            fn on_hit(&mut self, f: usize);
            fn on_load(&mut self, f: usize);
            fn pick(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize>;
        }

        /// The production state, driven exactly as a shard drives it.
        struct Real {
            state: ReplacementState,
            policy: ReplacementPolicy,
        }

        impl Real {
            fn new(n: usize, policy: ReplacementPolicy) -> Self {
                Real {
                    state: ReplacementState::new(n),
                    policy,
                }
            }
        }

        impl PolicyModel for Real {
            fn on_hit(&mut self, f: usize) {
                self.state.on_hit(f, self.policy);
            }
            fn on_load(&mut self, f: usize) {
                self.state.on_load(f);
            }
            fn pick(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
                self.state.pick_victim(self.policy, evictable)
            }
        }

        /// Reference SIEVE: insertion order in a `Vec`, the hand holds
        /// the frame it will examine next (`None` = wrap to the oldest).
        struct RefSieve {
            order: Vec<usize>,
            visited: Vec<bool>,
            hand: Option<usize>,
        }

        impl RefSieve {
            fn new(n: usize) -> Self {
                RefSieve {
                    order: (0..n).collect(),
                    visited: vec![false; n],
                    hand: None,
                }
            }
        }

        impl PolicyModel for RefSieve {
            fn on_hit(&mut self, f: usize) {
                self.visited[f] = true;
            }
            fn on_load(&mut self, f: usize) {
                if let Some(pos) = self.order.iter().position(|&x| x == f) {
                    // The hand never dangles: evicting its own frame
                    // slides it to the next-oldest survivor.
                    if self.hand == Some(f) {
                        self.hand = self.order.get(pos + 1).copied();
                    }
                    self.order.remove(pos);
                }
                self.order.push(f);
                self.visited[f] = false;
            }
            fn pick(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
                let n = self.visited.len();
                for _ in 0..2 * n {
                    let pos = match self.hand {
                        Some(f) => self
                            .order
                            .iter()
                            .position(|&x| x == f)
                            .expect("hand frame on list"),
                        None if self.order.is_empty() => return None,
                        None => 0,
                    };
                    let f = self.order[pos];
                    self.hand = self.order.get(pos + 1).copied();
                    if !evictable(f) {
                        continue;
                    }
                    if self.visited[f] {
                        self.visited[f] = false;
                        continue;
                    }
                    return Some(f);
                }
                None
            }
        }

        /// A single-shard cache over any policy model: page → frame
        /// mapping, free-list-first frame assignment (index order, like
        /// a cold shard), and a pin set the evictability closure honours.
        struct Cache<M: PolicyModel> {
            model: M,
            frame_of: HashMap<u32, usize>,
            page_in: Vec<Option<u32>>,
            free: Vec<usize>,
            pinned: HashSet<u32>,
        }

        impl<M: PolicyModel> Cache<M> {
            fn new(n: usize, model: M) -> Self {
                Cache {
                    model,
                    frame_of: HashMap::new(),
                    page_in: vec![None; n],
                    free: (0..n).rev().collect(),
                    pinned: HashSet::new(),
                }
            }

            fn step(&mut self, op: &Op) -> Event {
                match *op {
                    Op::Pin(p) => {
                        if self.frame_of.contains_key(&p) {
                            self.pinned.insert(p);
                        }
                        Event::Noop
                    }
                    Op::Unpin(p) => {
                        self.pinned.remove(&p);
                        Event::Noop
                    }
                    Op::Access(p) => {
                        if let Some(&f) = self.frame_of.get(&p) {
                            self.model.on_hit(f);
                            return Event::Hit(f);
                        }
                        let f = match self.free.pop() {
                            Some(f) => Some(f),
                            None => {
                                let (page_in, pinned) = (&self.page_in, &self.pinned);
                                self.model.pick(&|i: usize| {
                                    !page_in[i].is_some_and(|q| pinned.contains(&q))
                                })
                            }
                        };
                        let Some(f) = f else { return Event::Stall };
                        let evicted = self.page_in[f].take();
                        if let Some(old) = evicted {
                            self.frame_of.remove(&old);
                        }
                        self.page_in[f] = Some(p);
                        self.frame_of.insert(p, f);
                        self.model.on_load(f);
                        Event::Load { frame: f, evicted }
                    }
                }
            }

            fn unpinned_resident(&self) -> usize {
                self.frame_of
                    .keys()
                    .filter(|p| !self.pinned.contains(p))
                    .count()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// No policy ever evicts a pinned frame, and eviction only
            /// stalls when literally every resident page is pinned —
            /// SIEVE's two-lap bound always finds an unpinned unvisited
            /// frame when one exists.
            #[test]
            fn no_policy_evicts_a_pinned_frame(
                n in 2usize..8,
                ops in proptest::collection::vec(arb_op(), 1..300),
            ) {
                for policy in ReplacementPolicy::ALL {
                    let mut cache = Cache::new(n, Real::new(n, policy));
                    for op in &ops {
                        match cache.step(op) {
                            Event::Load { evicted: Some(old), .. } => prop_assert!(
                                !cache.pinned.contains(&old),
                                "{policy:?} evicted pinned page {old}"
                            ),
                            Event::Stall => prop_assert_eq!(
                                cache.unpinned_resident(),
                                0,
                                "{:?} stalled with an evictable frame",
                                policy
                            ),
                            _ => {}
                        }
                    }
                }
            }

            /// SIEVE reproduces its reference model event-for-event:
            /// same hits, same victim frames, same stalls — so hit/miss
            /// accounting (and therefore Ablation 3's SIEVE rows) is
            /// exactly what the textbook algorithm predicts.
            #[test]
            fn sieve_matches_reference_model(
                n in 2usize..8,
                ops in proptest::collection::vec(arb_op(), 1..300),
            ) {
                let mut real = Cache::new(n, Real::new(n, ReplacementPolicy::Sieve));
                let mut model = Cache::new(n, RefSieve::new(n));
                for (step, op) in ops.iter().enumerate() {
                    let got = real.step(op);
                    let want = model.step(op);
                    prop_assert_eq!(got, want, "step {}", step);
                }
                prop_assert_eq!(&real.frame_of, &model.frame_of);
            }
        }
    }
}
