//! The cost model: the plan rules the executor decides by, and the
//! analytical expected-I/O formulas (paper Sec. 5) that price them.
//!
//! **One rule per decision.** The paper makes BFS's join the optimizer's
//! cost-based choice (Sec. 3.1) and SMART's cache use a cost crossover
//! (Sec. 5.3). Each is one function here — [`bfs_join_plan`] (with the
//! estimate it is built on, [`bfs_join_estimate`]) and
//! [`smart_uses_cache`] — and both the executor (`strategies`) and the
//! model below call it. Only the inputs differ: the executor passes what
//! it measures at run time, the model passes its [`Geometry`].
//!
//! **The model.** Each strategy's expected page I/O per retrieve is a
//! closed-form function of the workload parameters, which the paper
//! validates the simulation against. Here it is pure functions: a
//! [`Workload`] (the paper's parameters), a [`Geometry`] (page geometry
//! of the built relations — [`Geometry::measure`]d from a real database,
//! or [`Geometry::estimate`]d from record sizes), and [`predict`] per
//! strategy returning a [`Prediction`] split into the paper's
//! `ParCost`/`ChildCost`.
//!
//! Two standard selectivity estimators carry most of the weight:
//!
//! * [`expected_distinct`] — Cardenas' formula `n·(1 − (1 − 1/n)^r)` for
//!   the expected number of distinct values in `r` uniform draws from
//!   `n`; used for distinct units among `NumTop` qualifying objects and
//!   distinct leaf pages among subobject fetches (Yao's block-hit
//!   estimate in its large-blocking-factor form).
//! * a smooth residency model for index internal pages: a query that
//!   churns more distinct pages than the buffer holds evicts the
//!   internals between queries and pays the descent again
//!   ([`cold_fraction`]).
//!
//! The model predicts *retrieve* cost (the paper's figures hold
//! `Pr(UPDATE) = 0` except Fig. 5/6; update cost is not modeled). It is
//! validated two ways: shape tests here (Fig. 3 crossover, Fig. 4 cache
//! monotonicity, Fig. 7 overlap degradation) and measured-vs-predicted
//! tolerance tests in the workload crate and the `explain` binary's
//! smoke gate.

use crate::database::{CorDatabase, CHILD_REL_BASE};
use crate::matrix::Strategy;
use cor_pagestore::PAGE_SIZE;
use cor_relational::OID_BYTES;

/// BFS's two ways of joining the temporary against ChildRel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    /// Iterative substitution: one index probe per temporary record.
    Iterative,
    /// Sort the temporary, then co-scan the OID-ordered ChildRel leaves.
    Merge,
}

/// Estimated pages for iterative substitution: the first probe pays a
/// full root-to-leaf descent; later probes find the internal pages
/// resident and pay about one leaf read each (random OIDs rarely share
/// leaves).
fn iterative_pages(n: u64, tree_height: u64) -> u64 {
    tree_height + n.saturating_sub(1)
}

/// Estimated pages for the merge join: scan every ChildRel leaf, plus
/// spill I/O (write runs + read runs) if the sort exceeds work memory.
fn merge_pages(n: u64, temp_pages: u64, leaf_pages: u64, sort_work_mem: u64) -> u64 {
    let sort_bytes = n * (OID_BYTES as u64 + 16);
    let spill = if sort_bytes <= sort_work_mem {
        0
    } else {
        2 * (sort_bytes / PAGE_SIZE as u64)
    };
    leaf_pages + temp_pages + spill
}

/// BFS's join rule: merge join when its estimate is strictly lower than
/// iterative substitution's, for `n` OIDs in a `temp_pages` temporary
/// against a ChildRel B-tree of `tree_height` levels and `leaf_pages`
/// leaves.
pub fn bfs_join_plan(
    n: u64,
    temp_pages: u64,
    tree_height: u64,
    leaf_pages: u64,
    sort_work_mem: u64,
) -> JoinPlan {
    if merge_pages(n, temp_pages, leaf_pages, sort_work_mem) < iterative_pages(n, tree_height) {
        JoinPlan::Merge
    } else {
        JoinPlan::Iterative
    }
}

/// Estimated pages to form the temporary and join it by the plan
/// [`bfs_join_plan`] picks — what [`smart_uses_cache`] weighs.
pub fn bfs_join_estimate(
    n: u64,
    temp_pages: u64,
    tree_height: u64,
    leaf_pages: u64,
    sort_work_mem: u64,
) -> u64 {
    temp_pages
        + match bfs_join_plan(n, temp_pages, tree_height, leaf_pages, sort_work_mem) {
            JoinPlan::Iterative => iterative_pages(n, tree_height),
            JoinPlan::Merge => merge_pages(n, temp_pages, leaf_pages, sort_work_mem),
        }
}

/// SMART's rule above its threshold: read the `distinct_cached` units
/// (about a page each) and join only the uncached references, when that
/// is strictly cheaper than joining every reference. A merge join scans
/// every ChildRel leaf regardless, so reading cached units on top of it
/// is wasted I/O unless the smaller temporary changes the join.
pub fn smart_uses_cache(distinct_cached: u64, join_est_uncached: u64, join_est_all: u64) -> bool {
    distinct_cached + join_est_uncached < join_est_all
}

/// The paper's workload parameters, as floats for closed-form use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// `|ParentRel|`.
    pub parent_card: f64,
    /// `SizeUnit` — subobjects per unit.
    pub size_unit: f64,
    /// `UseFactor` — objects sharing a unit.
    pub use_factor: f64,
    /// `OverlapFactor` — units sharing a subobject.
    pub overlap_factor: f64,
    /// `NumTop` — objects selected per retrieve.
    pub num_top: f64,
    /// `SizeCache` — cache capacity in units.
    pub size_cache: f64,
    /// Buffer pool capacity in pages.
    pub buffer_pages: f64,
    /// SMART's NumTop threshold (`N = 300`).
    pub smart_threshold: f64,
    /// Sort work memory in bytes.
    pub sort_work_mem: f64,
}

impl Workload {
    /// `ShareFactor = UseFactor × OverlapFactor`.
    pub fn share_factor(&self) -> f64 {
        self.use_factor * self.overlap_factor
    }

    /// Eqn. (1): `|ChildRel| = |ParentRel| × SizeUnit / ShareFactor`.
    pub fn child_card(&self) -> f64 {
        (self.parent_card * self.size_unit / self.share_factor()).max(1.0)
    }

    /// `NumUnits = |ParentRel| / UseFactor`.
    pub fn num_units(&self) -> f64 {
        (self.parent_card / self.use_factor).max(1.0)
    }

    /// Subobject references per retrieve (`NumTop × SizeUnit`).
    pub fn refs(&self) -> f64 {
        self.num_top * self.size_unit
    }

    /// Expected distinct units among the `NumTop` qualifying objects.
    pub fn distinct_units(&self) -> f64 {
        expected_distinct(self.num_units(), self.num_top)
    }

    /// Expected distinct subobjects referenced per retrieve. With
    /// `OverlapFactor = 1` units partition ChildRel, so distinct units
    /// contribute disjoint members; with overlap, members collide.
    pub fn distinct_children(&self) -> f64 {
        if self.overlap_factor <= 1.0 {
            self.distinct_units() * self.size_unit
        } else {
            expected_distinct(self.child_card(), self.distinct_units() * self.size_unit)
        }
    }
}

/// Page geometry of the built relations. Measure it from a real database
/// for tight predictions, or [`Geometry::estimate`] it from record sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// ParentRel B-tree height in levels (including the leaf level).
    pub parent_height: f64,
    /// ParentRel leaf pages.
    pub parent_leaf_pages: f64,
    /// ChildRel B-tree height.
    pub child_height: f64,
    /// ChildRel leaf pages.
    pub child_leaf_pages: f64,
    /// ClusterRel B-tree height (clustered representation).
    pub cluster_height: f64,
    /// ClusterRel leaf pages.
    pub cluster_leaf_pages: f64,
    /// ISAM OID-index height.
    pub isam_height: f64,
    /// OID records per temporary heap page (BFS temp / sort runs).
    pub temp_records_per_page: f64,
    /// Bytes one sorted record occupies in sort work memory.
    pub sort_record_bytes: f64,
}

impl Geometry {
    /// Estimate the geometry from first principles: 2 KB slotted pages,
    /// the repo's ~200-byte parent and ~100-byte child records, B-tree
    /// fill factors of the bulk loader. Good enough for golden tests;
    /// the `explain` binary measures the real thing.
    pub fn estimate(w: &Workload) -> Geometry {
        let page = 2048.0_f64;
        // Slotted-page payload after header/slot overhead, bulk-load fill.
        let payload: f64 = (page - 32.0) * 0.85;
        let parent_bytes = 210.0_f64 + 12.0; // record + key/slot overhead
        let child_bytes = 104.0_f64 + 12.0;
        let parents_per_leaf = (payload / parent_bytes).floor().max(1.0);
        let children_per_leaf = (payload / child_bytes).floor().max(1.0);
        let parent_leaf_pages = (w.parent_card / parents_per_leaf).ceil().max(1.0);
        let child_leaf_pages = (w.child_card() / children_per_leaf).ceil().max(1.0);
        // Internal fan-out: 10-byte keys + page pointers.
        let fanout = (payload / 30.0).floor().max(2.0);
        let height = |leaves: f64| 1.0 + (leaves.ln() / fanout.ln()).ceil().max(0.0);
        // ClusterRel interleaves every parent and child record once.
        let cluster_rows_per_leaf = {
            let mix = (w.parent_card * parent_bytes + w.child_card() * child_bytes)
                / (w.parent_card + w.child_card());
            (payload / (mix + 12.0)).floor().max(1.0)
        };
        let cluster_leaf_pages = ((w.parent_card + w.child_card()) / cluster_rows_per_leaf)
            .ceil()
            .max(1.0);
        Geometry {
            parent_height: height(parent_leaf_pages),
            parent_leaf_pages,
            child_height: height(child_leaf_pages),
            child_leaf_pages,
            cluster_height: height(cluster_leaf_pages),
            cluster_leaf_pages,
            isam_height: height((w.child_card() / 90.0).ceil().max(1.0)),
            temp_records_per_page: 120.0,
            sort_record_bytes: 26.0,
        }
    }

    /// Measure the built database's page geometry where it has the
    /// structure: ParentRel's and the first ChildRel's (`CHILD_REL_BASE`)
    /// tree heights and leaf counts on the standard representation,
    /// ClusterRel's on the clustered one, plus the temporary's and sort's
    /// record sizes. Everything else (the other representation's trees,
    /// the ISAM height, any further ChildRels) keeps its
    /// [`Geometry::estimate`].
    pub fn measure(db: &CorDatabase, w: &Workload) -> Geometry {
        let mut g = Geometry::estimate(w);
        if let Ok(parent) = db.parent_tree() {
            g.parent_height = parent.height() as f64;
            g.parent_leaf_pages = parent.leaf_pages() as f64;
        }
        if let Ok(child) = db.child_tree(CHILD_REL_BASE) {
            g.child_height = child.height() as f64;
            g.child_leaf_pages = child.leaf_pages() as f64;
        }
        if let Ok((cluster, _isam)) = db.cluster() {
            g.cluster_height = cluster.height() as f64;
            g.cluster_leaf_pages = cluster.leaf_pages() as f64;
        }
        g.sort_record_bytes = (OID_BYTES + 16) as f64;
        g.temp_records_per_page = (PAGE_SIZE / (OID_BYTES + 7)) as f64;
        g
    }

    /// Parent tuples per leaf page.
    pub fn parents_per_leaf(&self, w: &Workload) -> f64 {
        (w.parent_card / self.parent_leaf_pages).max(1.0)
    }

    /// Cluster rows (objects + subobjects) per leaf page.
    pub fn cluster_rows_per_leaf(&self, w: &Workload) -> f64 {
        ((w.parent_card + w.child_card()) / self.cluster_leaf_pages).max(1.0)
    }
}

/// Cardenas' estimator: expected distinct values in `r` uniform draws
/// (with replacement) from a domain of `n`. Also Yao's block-hit count in
/// its i.i.d. form when `n` is a page count.
pub fn expected_distinct(n: f64, r: f64) -> f64 {
    if n <= 0.0 || r <= 0.0 {
        return 0.0;
    }
    if n <= 1.0 {
        return 1.0_f64.min(r);
    }
    n * (1.0 - (1.0 - 1.0 / n).powf(r))
}

/// How often per-query work re-faults index internal pages: `0` when a
/// query's distinct-page churn (plus the internals themselves) fits the
/// buffer — the internals stay resident across the sequence — rising
/// smoothly to `1` when churn is at least twice the buffer.
pub fn cold_fraction(churn: f64, internals: f64, buffer_pages: f64) -> f64 {
    if buffer_pages <= 0.0 {
        return 1.0;
    }
    ((churn + internals - buffer_pages) / buffer_pages).clamp(0.0, 1.0)
}

/// An analytical per-retrieve cost, split the way the paper splits
/// measured cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Prediction {
    /// Expected I/O for accessing the qualifying objects (`ParCost`).
    pub par: f64,
    /// Expected I/O for everything else — subobject fetching,
    /// temporaries, sorting, joining, cache traffic (`ChildCost`).
    pub child: f64,
}

impl Prediction {
    /// Expected total I/O per retrieve.
    pub fn total(&self) -> f64 {
        self.par + self.child
    }
}

/// ParCost of a standard-representation range scan: the touched leaf
/// span plus whatever fraction of the descent is cold.
fn par_scan(w: &Workload, g: &Geometry, churn: f64) -> f64 {
    let leaves = w.num_top / g.parents_per_leaf(w) + 1.0;
    leaves
        + (g.parent_height - 1.0).max(0.0) * cold_fraction(churn, g.parent_height, w.buffer_pages)
}

/// Expected distinct ChildRel leaf pages touched when fetching the
/// query's distinct subobjects by index probe.
fn child_probe_pages(w: &Workload, g: &Geometry) -> f64 {
    expected_distinct(g.child_leaf_pages, w.distinct_children())
}

/// Expected physical reads for `probes` random index probes whose targets
/// span `distinct_pages` leaf pages under a `buffer_pages` LRU pool: each
/// distinct page faults once, and re-references miss in proportion to how
/// badly the working set overflows the buffer. This is the term that
/// makes DFS degrade past the buffer size (the paper's Fig. 3 right-hand
/// side) — with a big enough pool it collapses back to `distinct_pages`.
fn probe_reads(probes: f64, distinct_pages: f64, buffer_pages: f64) -> f64 {
    let d = distinct_pages.max(0.0);
    if d <= 0.0 {
        return 0.0;
    }
    let rereference_miss = ((d - buffer_pages) / d).clamp(0.0, 1.0);
    d + (probes - d).max(0.0) * rereference_miss
}

/// DFS (Sec. 3.1 \[1\]): one index probe per subobject reference. While
/// the working set fits the pool repeated references are free; past it,
/// each probe pays again (`probe_reads`). The descent's internal pages
/// are the hottest pages in the pool and stay warm even under churn, so
/// they contribute only a cold-start fraction.
pub fn predict_dfs(w: &Workload, g: &Geometry) -> Prediction {
    let probe_pages = child_probe_pages(w, g);
    let leaf_reads = probe_reads(w.refs(), probe_pages, w.buffer_pages);
    let churn = probe_pages + w.num_top / g.parents_per_leaf(w);
    let cold = cold_fraction(churn, g.child_height, w.buffer_pages);
    Prediction {
        par: par_scan(w, g, churn),
        child: leaf_reads + (g.child_height - 1.0).max(0.0) * cold,
    }
}

/// The BFS temporary's size in pages.
fn temp_pages(g: &Geometry, records: f64) -> f64 {
    (records / g.temp_records_per_page).ceil().max(1.0)
}

/// BFS's join rule ([`bfs_join_plan`]) on the model's inputs: the
/// workload's references, in a temporary sized by the geometry, against
/// the geometry's ChildRel.
pub fn model_join_plan(w: &Workload, g: &Geometry) -> JoinPlan {
    let refs = w.refs();
    bfs_join_plan(
        refs as u64,
        temp_pages(g, refs) as u64,
        g.child_height as u64,
        g.child_leaf_pages as u64,
        w.sort_work_mem as u64,
    )
}

/// [`bfs_join_estimate`] on the same inputs as [`model_join_plan`].
fn model_join_estimate(w: &Workload, g: &Geometry) -> u64 {
    let refs = w.refs();
    bfs_join_estimate(
        refs as u64,
        temp_pages(g, refs) as u64,
        g.child_height as u64,
        g.child_leaf_pages as u64,
        w.sort_work_mem as u64,
    )
}

/// Sort spill I/O: zero when the run fits work memory, otherwise one
/// write plus one read per spilled page.
fn sort_spill(w: &Workload, g: &Geometry, records: f64) -> f64 {
    let bytes = records * g.sort_record_bytes;
    if bytes <= w.sort_work_mem {
        0.0
    } else {
        2.0 * (records / g.temp_records_per_page).ceil()
    }
}

/// BFS / BFSNODUP (Sec. 3.1 \[2\]/\[3\]): materialize the temporary, then
/// join it by the plan BFS's join rule picks ([`model_join_plan`]) —
/// merge join (scan every ChildRel leaf) or iterative substitution (probe
/// per record) — priced with the physical model. `dedup` removes
/// duplicate references while sorting (BFSNODUP).
pub fn predict_bfs(w: &Workload, g: &Geometry, dedup: bool) -> Prediction {
    let refs = w.refs();
    let t = temp_pages(g, refs);
    let probe_records = if dedup { w.distinct_children() } else { refs };

    let (join_cost, churn) = match model_join_plan(w, g) {
        // Sort the temp (read it back + spill), co-scan the ChildRel leaf
        // chain.
        JoinPlan::Merge => (
            t + sort_spill(w, g, probe_records) + g.child_leaf_pages,
            g.child_leaf_pages + t,
        ),
        // Read the temp back and probe like DFS.
        JoinPlan::Iterative => {
            let probe_pages = expected_distinct(g.child_leaf_pages, w.distinct_children());
            let spill = if dedup { sort_spill(w, g, refs) } else { 0.0 };
            let join_cost = t
                + spill
                + probe_reads(probe_records, probe_pages, w.buffer_pages)
                + (g.child_height - 1.0).max(0.0)
                    * cold_fraction(probe_pages + t, g.child_height, w.buffer_pages);
            (join_cost, probe_pages + t)
        }
    };
    Prediction {
        par: par_scan(w, g, churn),
        // Temp formation: one write per page forced, plus allocation-time
        // population happens in the buffer (no read).
        child: t + join_cost,
    }
}

/// Steady-state probability that a unit probe hits the cache: the cache
/// holds `SizeCache` of the `NumUnits` equally likely units.
pub fn cache_hit_ratio(w: &Workload) -> f64 {
    (w.size_cache / w.num_units()).clamp(0.0, 1.0)
}

/// DFSCACHE (Sec. 3.2): probe the unit-value cache per qualifying
/// object; hits read the cached value (~1 page from the hash relation),
/// misses materialize the unit like DFS and insert it.
pub fn predict_dfs_cache(w: &Workload, g: &Geometry) -> Prediction {
    let h = cache_hit_ratio(w);
    let d_u = w.distinct_units();
    let member_pages = expected_distinct(g.child_leaf_pages, w.size_unit);
    // Per distinct unit: hit -> one hash-bucket read; miss -> the
    // materializing probes plus the insert (bucket read + page write).
    let per_hit = 1.0;
    let per_miss = member_pages
        + (g.child_height - 1.0).max(0.0)
            * cold_fraction(member_pages, g.child_height, w.buffer_pages)
        + 2.0;
    let child = d_u * (h * per_hit + (1.0 - h) * per_miss);
    let churn = child;
    Prediction {
        par: par_scan(w, g, churn),
        child,
    }
}

/// DFSCLUST (Sec. 3.3): one cluster-range scan returns the objects and
/// their co-clustered subobjects; units clustered with an out-of-range
/// object cost an ISAM probe plus one leaf read each.
pub fn predict_dfs_clust(w: &Workload, g: &Geometry) -> Prediction {
    // Each unit is physically clustered with exactly one of its
    // ~UseFactor users, so a scanned object's unit is local with
    // probability 1/UseFactor (plus the chance the foreign owner also
    // falls in the scanned range).
    let p_local =
        (1.0 / w.use_factor + (1.0 - 1.0 / w.use_factor) * (w.num_top / w.parent_card)).min(1.0);
    // The scan covers the qualifying objects and the subobjects stored
    // with them (each object owns SizeUnit/UseFactor stored members on
    // average).
    let rows = w.num_top * (1.0 + w.size_unit / w.use_factor);
    let scan_pages = rows / g.cluster_rows_per_leaf(w) + 1.0;
    let d_u = w.distinct_units();
    let foreign = d_u * (1.0 - p_local);
    // Foreign unit: ISAM descent (internals warm like other indexes) +
    // one ClusterRel leaf holding the whole unit.
    let churn = scan_pages + 2.0 * foreign;
    let cold = cold_fraction(churn, g.isam_height + g.cluster_height, w.buffer_pages);
    let par = scan_pages + (g.cluster_height - 1.0).max(0.0) * cold;
    let child = foreign * (1.0 + 1.0 + (g.isam_height - 1.0).max(0.0) * cold);
    Prediction { par, child }
}

/// SMART (Sec. 5.3): DFSCACHE up to the NumTop threshold; above it, the
/// breadth-first arm, which reads cached units and joins the uncached
/// remainder when SMART's rule ([`smart_uses_cache`]) says that pays, and
/// joins everything otherwise.
///
/// Above N no unit is cached: the breadth-first arm never fills the cache,
/// and a sequence runs one NumTop, so the DFSCACHE arm never ran before
/// it. With nothing cached the rule joins everything.
pub fn predict_smart(w: &Workload, g: &Geometry) -> Prediction {
    if w.num_top <= w.smart_threshold {
        return predict_dfs_cache(w, g);
    }
    let cached_share = 0.0;
    let cached_units = cached_share * w.distinct_units();
    let uncached = Workload {
        num_top: w.num_top * (1.0 - cached_share),
        ..*w
    };
    if smart_uses_cache(
        cached_units as u64,
        model_join_estimate(&uncached, g),
        model_join_estimate(w, g),
    ) {
        Prediction {
            par: par_scan(w, g, g.child_leaf_pages),
            child: cached_units + predict_bfs(&uncached, g, false).child,
        }
    } else {
        predict_bfs(w, g, false)
    }
}

/// Expected I/O per retrieve of `strategy`.
pub fn predict(strategy: Strategy, w: &Workload, g: &Geometry) -> Prediction {
    match strategy {
        Strategy::Dfs => predict_dfs(w, g),
        Strategy::Bfs => predict_bfs(w, g, false),
        Strategy::BfsNoDup => predict_bfs(w, g, true),
        Strategy::DfsCache => predict_dfs_cache(w, g),
        Strategy::DfsClust => predict_dfs_clust(w, g),
        Strategy::Smart => predict_smart(w, g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Sec. 4 defaults (the Fig. 3 operating point sweeps
    /// NumTop over these).
    fn paper(num_top: f64) -> Workload {
        Workload {
            parent_card: 10_000.0,
            size_unit: 5.0,
            use_factor: 5.0,
            overlap_factor: 1.0,
            num_top,
            size_cache: 1000.0,
            buffer_pages: 100.0,
            smart_threshold: 300.0,
            sort_work_mem: 32.0 * 2048.0,
        }
    }

    #[test]
    fn estimators_are_sane() {
        assert_eq!(expected_distinct(100.0, 0.0), 0.0);
        assert!((expected_distinct(100.0, 1.0) - 1.0).abs() < 1e-9);
        // Monotone, bounded by both n and r.
        let d = expected_distinct(2000.0, 100.0);
        assert!(d > 95.0 && d < 100.0, "{d}");
        assert!(expected_distinct(10.0, 1_000.0) <= 10.0 + 1e-9);
        assert_eq!(cold_fraction(10.0, 3.0, 100.0), 0.0);
        assert_eq!(cold_fraction(500.0, 3.0, 100.0), 1.0);
        let mid = cold_fraction(150.0, 0.0, 100.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn workload_algebra_matches_section_4() {
        let w = paper(100.0);
        assert_eq!(w.child_card(), 10_000.0);
        assert_eq!(w.num_units(), 2_000.0);
        assert_eq!(w.refs(), 500.0);
        let d = w.distinct_units();
        assert!(d > 95.0 && d < 100.0);
    }

    #[test]
    fn fig3_shape_dfs_wins_low_numtop_bfs_wins_high() {
        let g = Geometry::estimate(&paper(1.0));
        // Low NumTop: DFS needs no temporary, BFS pays for one.
        let lo_dfs = predict_dfs(&paper(1.0), &g).total();
        let lo_bfs = predict_bfs(&paper(1.0), &g, false).total();
        assert!(
            lo_dfs < lo_bfs,
            "NumTop=1: DFS {lo_dfs:.1} must beat BFS {lo_bfs:.1}"
        );
        // High NumTop: DFS degenerates to a probe per reference while the
        // merge join's leaf scan flattens BFS (the Fig. 3 crossover).
        let hi_dfs = predict_dfs(&paper(2_000.0), &g).total();
        let hi_bfs = predict_bfs(&paper(2_000.0), &g, false).total();
        assert!(
            hi_bfs < hi_dfs / 2.0,
            "NumTop=2000: BFS {hi_bfs:.1} must far undercut DFS {hi_dfs:.1}"
        );
        // And both grow monotonically in NumTop.
        for pair in [1.0, 10.0, 100.0, 1_000.0, 10_000.0].windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                predict_dfs(&paper(a), &g).total() < predict_dfs(&paper(b), &g).total(),
                "DFS monotone {a}->{b}"
            );
        }
    }

    #[test]
    fn fig3_shape_bfsnodup_no_worse_than_bfs_under_sharing() {
        let g = Geometry::estimate(&paper(1_000.0));
        let bfs = predict_bfs(&paper(1_000.0), &g, false).total();
        let nodup = predict_bfs(&paper(1_000.0), &g, true).total();
        assert!(
            nodup <= bfs + 1e-9,
            "dedup never adds I/O: {nodup} vs {bfs}"
        );
    }

    #[test]
    fn fig4_shape_cache_pays_off_monotonically() {
        let mut last = f64::INFINITY;
        for size_cache in [0.0, 250.0, 500.0, 1_000.0, 2_000.0] {
            let w = Workload {
                size_cache,
                ..paper(100.0)
            };
            let g = Geometry::estimate(&w);
            let c = predict_dfs_cache(&w, &g).total();
            assert!(
                c <= last + 1e-9,
                "larger cache must not cost more: {size_cache} -> {c}"
            );
            last = c;
        }
        // A full-coverage cache beats plain DFS.
        let w = Workload {
            size_cache: 2_000.0,
            ..paper(100.0)
        };
        let g = Geometry::estimate(&w);
        assert!(predict_dfs_cache(&w, &g).total() < predict_dfs(&w, &g).total());
    }

    #[test]
    fn fig5_shape_clustering_trades_parcost_for_childcost() {
        let w = paper(200.0);
        let g = Geometry::estimate(&w);
        let dfs = predict_dfs(&w, &g);
        let clust = predict_dfs_clust(&w, &g);
        // The cluster scan drags co-located subobjects through ParCost…
        assert!(clust.par > dfs.par, "{} vs {}", clust.par, dfs.par);
        // …and wins overall by collapsing ChildCost (Fig. 5's story).
        assert!(clust.child < dfs.child);
        assert!(clust.total() < dfs.total());
    }

    #[test]
    fn fig7_shape_overlap_degrades_clustering() {
        let base = Workload {
            overlap_factor: 1.0,
            ..paper(200.0)
        };
        let overlapped = Workload {
            overlap_factor: 5.0,
            use_factor: 1.0,
            ..paper(200.0)
        };
        let c1 = predict_dfs_clust(&base, &Geometry::estimate(&base)).total();
        // With OverlapFactor 5 / UseFactor 1 every unit is clustered with
        // its single user, so the penalty shows in the standard
        // strategies' distinct-subobject collapse instead; check the
        // model keeps distinct children below the no-overlap count.
        assert!(overlapped.distinct_children() < base.distinct_children());
        assert!(c1.is_finite() && c1 > 0.0);
    }

    #[test]
    fn smart_follows_dfscache_below_threshold_and_bfs_above() {
        let w = paper(100.0);
        let g = Geometry::estimate(&w);
        assert_eq!(predict(Strategy::Smart, &w, &g), predict_dfs_cache(&w, &g));
        // Above N the cache is empty, so SMART's rule joins everything.
        for num_top in [301.0, 2_000.0] {
            let hi = paper(num_top);
            let g = Geometry::estimate(&hi);
            assert_eq!(
                predict(Strategy::Smart, &hi, &g),
                predict(Strategy::Bfs, &hi, &g),
                "NumTop {num_top}"
            );
        }
    }

    #[test]
    fn golden_values_at_the_fig3_operating_point() {
        // Exact regression pins for the model at the paper's Sec. 4
        // point (NumTop = 100): any change to the formulas must be
        // deliberate and show up here.
        let w = paper(100.0);
        let g = Geometry::estimate(&w);
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        let dfs = predict_dfs(&w, &g);
        let bfs = predict_bfs(&w, &g, false);
        let clust = predict_dfs_clust(&w, &g);
        let cache = predict_dfs_cache(&w, &g);
        assert_eq!(round2(dfs.total()), 477.95);
        assert_eq!(round2(bfs.total()), 487.95);
        assert_eq!(round2(clust.total()), 308.91);
        assert_eq!(round2(cache.total()), 406.87);
        // The split stays the paper's ParCost + ChildCost.
        assert!((dfs.par + dfs.child - dfs.total()).abs() < 1e-12);
    }

    #[test]
    fn predict_covers_every_strategy() {
        let w = paper(50.0);
        let g = Geometry::estimate(&w);
        for strategy in Strategy::ALL {
            let p = predict(strategy, &w, &g);
            assert!(p.total().is_finite() && p.total() > 0.0, "{strategy}");
        }
    }
}
