//! The operating points of Figures 5 and 7, shared by their binaries and
//! by `ablation`'s buffer-policy rows, which run the same points under
//! every replacement policy.

use crate::num_top_sweep;
use complexobj::Strategy;
use cor_pagestore::ReplacementPolicy;
use cor_workload::{
    default_threads, generate, generate_sequence, parallel_map, Engine, Params, RunResult,
};

/// Run one retrieve-only point under `strategy` on a pool with `policy`;
/// under LRU this is exactly [`cor_workload::run_point`].
fn run_under(policy: ReplacementPolicy, p: &Params, strategy: Strategy) -> RunResult {
    let engine = Engine::builder()
        .policy(policy)
        .build_workload(p, &generate(p), strategy)
        .expect("engine builds");
    engine
        .run_sequence(strategy, &generate_sequence(p))
        .expect("point runs")
}

/// Figure 5: DFSCLUST and BFS at ShareFactor 1..=10 (as UseFactor,
/// OverlapFactor 1) and NumTop 200·scale.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// NumTop at every point.
    pub num_top: u64,
    /// `(ParCost, ChildCost)` per ShareFactor from 1, indexed like
    /// [`Fig5::STRATEGIES`].
    pub costs: Vec<[(f64, f64); 2]>,
}

impl Fig5 {
    /// Fig 5(a) and 5(b), in `costs` order.
    pub const STRATEGIES: [Strategy; 2] = [Strategy::DfsClust, Strategy::Bfs];

    /// Run the sweep on pools with `policy`.
    pub fn run(base: &Params, scale: f64, policy: ReplacementPolicy) -> Self {
        let num_top = ((200.0 * scale).round() as u64).clamp(1, base.parent_card);
        let points: Vec<(u32, Strategy)> = (1..=10)
            .flat_map(|sf| Self::STRATEGIES.map(|s| (sf, s)))
            .collect();
        let costs = parallel_map(points, default_threads(), |&(sf, s)| {
            let p = Params {
                use_factor: sf,
                overlap_factor: 1,
                num_top,
                pr_update: 0.0,
                ..base.clone()
            };
            let r = run_under(policy, &p, s);
            (r.avg_par_cost(), r.avg_child_cost())
        });
        Fig5 {
            num_top,
            costs: costs.chunks(2).map(|c| [c[0], c[1]]).collect(),
        }
    }

    /// TotCost of strategy `si` at ShareFactor `i + 1`.
    pub fn tot(&self, i: usize, si: usize) -> f64 {
        let (par, child) = self.costs[i][si];
        par + child
    }

    /// Whether BFS costs less than DFSCLUST at ShareFactor `i + 1`.
    pub fn bfs_wins(&self, i: usize) -> bool {
        self.tot(i, 1) < self.tot(i, 0)
    }

    /// The first ShareFactor at which BFS beats DFSCLUST.
    pub fn crossover(&self) -> Option<u32> {
        (0..self.costs.len())
            .find(|&i| self.bfs_wins(i))
            .map(|i| i as u32 + 1)
    }
}

/// Figure 7: Cost(DFSCLUST)/Cost(BFS) over [`num_top_sweep`] for the two
/// ways of sharing ShareFactor 5.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// The NumTop values swept.
    pub num_tops: Vec<u64>,
    /// The ratio per NumTop, one series per [`Fig7::CASES`] entry.
    pub ratios: [Vec<f64>; 2],
}

impl Fig7 {
    /// `(OverlapFactor, UseFactor)`: whole units shared, then
    /// overlapping units.
    pub const CASES: [(u32, u32); 2] = [(1, 5), (5, 1)];

    /// Run both cases on pools with `policy`.
    pub fn run(base: &Params, policy: ReplacementPolicy) -> Self {
        let num_tops = num_top_sweep(base.parent_card);
        let mut points = Vec::new();
        for (of, uf) in Self::CASES {
            for &nt in &num_tops {
                for s in [Strategy::DfsClust, Strategy::Bfs] {
                    points.push((of, uf, nt, s));
                }
            }
        }
        let costs = parallel_map(points, default_threads(), |&(of, uf, nt, s)| {
            let p = Params {
                overlap_factor: of,
                use_factor: uf,
                num_top: nt,
                pr_update: 0.0,
                ..base.clone()
            };
            run_under(policy, &p, s).avg_retrieve_io()
        });
        let ratio = |c: &[f64]| c[0] / c[1];
        let (first, second) = costs.split_at(costs.len() / 2);
        Fig7 {
            num_tops,
            ratios: [
                first.chunks(2).map(ratio).collect(),
                second.chunks(2).map(ratio).collect(),
            ],
        }
    }

    /// The mean ratio of `case`.
    pub fn mean(&self, case: usize) -> f64 {
        self.ratios[case].iter().sum::<f64>() / self.ratios[case].len() as f64
    }

    /// The first NumTop at which BFS overtakes DFSCLUST in `case`.
    pub fn crossover(&self, case: usize) -> Option<u64> {
        self.ratios[case]
            .iter()
            .position(|&r| r > 1.0)
            .map(|i| self.num_tops[i])
    }
}
