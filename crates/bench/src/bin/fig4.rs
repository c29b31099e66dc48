//! Figure 4: the 3-D region plot — which of BFS / DFSCACHE / DFSCLUST is
//! best as a function of ShareFactor, NumTop and Pr(UPDATE).
//!
//! The paper sampled ~300 points of the enclosing cuboid and extrapolated
//! regions. We run a grid of the same order (5 ShareFactors × 5 NumTops ×
//! 5 update frequencies = 125 points, 3 strategies each), print the winner
//! per point, and with `--faces` render the 2-D projections the paper
//! walks through in Sec. 5.2.1–5.2.4.
//!
//! Expected shape: DFSCLUST wins only near ShareFactor = 1; DFSCACHE wins
//! at low Pr(UPDATE) and low NumTop; BFS wins the rest (large NumTop or
//! high update frequency).
//!
//! ```text
//! cargo run -p cor-bench --release --bin fig4 [--scale F] [--faces]
//! ```

use complexobj::Strategy;
use cor_bench::BenchConfig;
use cor_workload::{
    default_threads, format_region_map, format_table, parallel_map, run_point, Params,
};

const STRATEGIES: [Strategy; 3] = [Strategy::Bfs, Strategy::DfsCache, Strategy::DfsClust];

fn initial(s: Strategy) -> char {
    match s {
        Strategy::Bfs => 'B',
        Strategy::DfsCache => 'C',
        Strategy::DfsClust => 'L',
        _ => '?',
    }
}

fn main() {
    let cfg = BenchConfig::from_args(&["--faces"], &[]);
    let mut base = cfg.base_params();
    // The full grid is 375 sequence runs; keep each sequence short unless
    // the caller overrode it.
    if cfg.seq.is_none() {
        base.sequence_len = (base.sequence_len / 4).max(40);
    }

    let share_factors: Vec<u32> = vec![1, 2, 5, 10, 25];
    let num_tops: Vec<u64> = [1u64, 10, 100, 1000, 10_000]
        .iter()
        .map(|&n| ((n as f64 * cfg.scale).round() as u64).clamp(1, base.parent_card))
        .collect();
    let pr_updates: Vec<f64> = vec![0.0, 0.25, 0.5, 0.75, 0.95];

    println!(
        "Figure 4 — best of BFS(B) / DFSCACHE(C) / DFSCLUST(L) over\n\
         ShareFactor x NumTop x Pr(UPDATE); scale {} => |ParentRel| = {}, {} queries/point\n",
        cfg.scale, base.parent_card, base.sequence_len
    );

    let mut points = Vec::new();
    for &sf in &share_factors {
        for &nt in &num_tops {
            for &pu in &pr_updates {
                for s in STRATEGIES {
                    points.push((sf, nt, pu, s));
                }
            }
        }
    }
    let costs = parallel_map(points.clone(), default_threads(), |&(sf, nt, pu, s)| {
        let p = Params {
            use_factor: sf,
            overlap_factor: 1,
            num_top: nt,
            pr_update: pu,
            ..base.clone()
        };
        run_point(&p, s).expect("point runs").avg_io_per_query()
    });

    // Winner per (sf, nt, pu).
    let idx = |i_sf: usize, i_nt: usize, i_pu: usize, i_s: usize| {
        ((i_sf * num_tops.len() + i_nt) * pr_updates.len() + i_pu) * STRATEGIES.len() + i_s
    };
    let winner = |i_sf: usize, i_nt: usize, i_pu: usize| -> Strategy {
        let mut best = STRATEGIES[0];
        let mut best_cost = f64::INFINITY;
        for (i_s, &s) in STRATEGIES.iter().enumerate() {
            let c = costs[idx(i_sf, i_nt, i_pu, i_s)];
            if c < best_cost {
                best_cost = c;
                best = s;
            }
        }
        best
    };

    let mut rows = Vec::new();
    for (i_sf, &sf) in share_factors.iter().enumerate() {
        for (i_nt, &nt) in num_tops.iter().enumerate() {
            for (i_pu, &pu) in pr_updates.iter().enumerate() {
                let w = winner(i_sf, i_nt, i_pu);
                let cells: Vec<String> = STRATEGIES
                    .iter()
                    .enumerate()
                    .map(|(i_s, _)| format!("{:.1}", costs[idx(i_sf, i_nt, i_pu, i_s)]))
                    .collect();
                rows.push(vec![
                    sf.to_string(),
                    nt.to_string(),
                    format!("{pu:.2}"),
                    cells[0].clone(),
                    cells[1].clone(),
                    cells[2].clone(),
                    w.name().to_string(),
                ]);
            }
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "ShareFactor",
                "NumTop",
                "Pr(UPD)",
                "BFS",
                "DFSCACHE",
                "DFSCLUST",
                "winner"
            ],
            &rows
        )
    );
    cfg.maybe_write_csv(
        &[
            "ShareFactor",
            "NumTop",
            "PrUpdate",
            "BFS",
            "DFSCACHE",
            "DFSCLUST",
            "winner",
        ],
        &rows,
    );

    if cfg.has_flag("--faces") {
        // Sec. 5.2.1: Pr(UPDATE) -> 1 (last pr index).
        print_face(
            "face Pr(UPDATE)->1 (Sec 5.2.1: clustering only near ShareFactor=1, else BFS)",
            &share_factors,
            &num_tops,
            |i_sf, i_nt| winner(i_sf, i_nt, pr_updates.len() - 1),
        );
        // Sec. 5.2.2: Pr(UPDATE) -> 0.
        print_face(
            "face Pr(UPDATE)->0 (Sec 5.2.2: caching cuts into clustering and BFS)",
            &share_factors,
            &num_tops,
            |i_sf, i_nt| winner(i_sf, i_nt, 0),
        );
        // Sec. 5.2.3: very high ShareFactor (last sf index): NumTop x Pr.
        let i_sf = share_factors.len() - 1;
        let cells: Vec<Vec<char>> = pr_updates
            .iter()
            .enumerate()
            .map(|(i_pu, _)| {
                (0..num_tops.len())
                    .map(|i_nt| initial(winner(i_sf, i_nt, i_pu)))
                    .collect()
            })
            .collect();
        println!(
            "{}",
            format_region_map(
                "face ShareFactor high (Sec 5.2.3: clustering useless; cache wins low NumTop/Pr)",
                "NumTop",
                "Pr(UPD)",
                &num_tops.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
                &pr_updates
                    .iter()
                    .map(|p| format!("{p:.2}"))
                    .collect::<Vec<_>>(),
                &cells,
            )
        );
        // Sec. 5.2.4: NumTop -> 1 (first nt index): ShareFactor x Pr.
        let cells: Vec<Vec<char>> = share_factors
            .iter()
            .enumerate()
            .map(|(i_sf, _)| {
                (0..pr_updates.len())
                    .map(|i_pu| initial(winner(i_sf, 0, i_pu)))
                    .collect()
            })
            .collect();
        println!(
            "{}",
            format_region_map(
                "face NumTop->1 (Sec 5.2.4: BFS/DFSCLUST boundary independent of Pr(UPDATE))",
                "Pr(UPD)",
                "ShareFactor",
                &pr_updates
                    .iter()
                    .map(|p| format!("{p:.2}"))
                    .collect::<Vec<_>>(),
                &share_factors
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>(),
                &cells,
            )
        );
    }

    // Headline checks.
    let w_ideal = winner(0, 0, 0);
    println!(
        "ShareFactor=1, low NumTop, no updates -> {} (paper: clustering ideal at ShareFactor 1) {}",
        w_ideal.name(),
        if w_ideal == Strategy::DfsClust {
            "[OK]"
        } else {
            "[note]"
        }
    );
    // Use the second-largest NumTop: at NumTop = |ParentRel| (a full
    // scan) our compact ClusterRel wins legitimately — a documented
    // substrate divergence (EXPERIMENTS.md, E2).
    let w_hot = winner(
        share_factors.len() - 1,
        num_tops.len() - 2,
        pr_updates.len() - 1,
    );
    println!(
        "high sharing, large NumTop, heavy updates -> {} (paper: BFS region) {}",
        w_hot.name(),
        if w_hot == Strategy::Bfs {
            "[OK]"
        } else {
            "[note]"
        }
    );
    let w_cache = winner(share_factors.len() - 1, 0, 0);
    println!(
        "high sharing, low NumTop, no updates -> {} (paper: DFSCACHE region) {}",
        w_cache.name(),
        if w_cache == Strategy::DfsCache {
            "[OK]"
        } else {
            "[note]"
        }
    );
}

fn print_face(
    title: &str,
    share_factors: &[u32],
    num_tops: &[u64],
    winner: impl Fn(usize, usize) -> Strategy,
) {
    let cells: Vec<Vec<char>> = share_factors
        .iter()
        .enumerate()
        .map(|(i_sf, _)| {
            (0..num_tops.len())
                .map(|i_nt| initial(winner(i_sf, i_nt)))
                .collect()
        })
        .collect();
    println!(
        "{}",
        format_region_map(
            title,
            "NumTop",
            "ShareFactor",
            &num_tops.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
            &share_factors
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &cells,
        )
    );
}
