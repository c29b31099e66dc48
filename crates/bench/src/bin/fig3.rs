//! Figure 3: DFS vs BFS vs BFSNODUP, average I/O per retrieve as a
//! function of NumTop, with ShareFactor = 5 and no caching or clustering.
//!
//! Paper's shape: DFS "is a loser when NumTop exceeds 50 or so"; at low
//! NumTop BFS is slightly worse than DFS (temporary-formation cost);
//! BFSNODUP "is not much better than simple BFS".
//!
//! ```text
//! cargo run -p cor-bench --release --bin fig3 [--scale F | --full]
//! ```

use complexobj::Strategy;
use cor_bench::{num_top_sweep, BenchConfig};
use cor_workload::{fnum, format_ascii_plot, format_table, parallel_map, run_point, Params};

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let base = cfg.base_params();
    println!(
        "Figure 3 — DFS / BFS / BFSNODUP vs NumTop (ShareFactor=5, Pr(UPDATE)=0)\n\
         scale {} => |ParentRel| = {}, buffer = {} pages, {} retrieves per point\n",
        cfg.scale, base.parent_card, base.buffer_pages, base.sequence_len
    );

    let strategies = [Strategy::Dfs, Strategy::Bfs, Strategy::BfsNoDup];
    let sweep = num_top_sweep(base.parent_card);
    let points: Vec<(u64, Strategy)> = sweep
        .iter()
        .flat_map(|&n| strategies.iter().map(move |&s| (n, s)))
        .collect();

    let results = parallel_map(
        points.clone(),
        cor_workload::default_threads(),
        |&(n, s)| {
            let p = Params {
                num_top: n,
                use_factor: 5,
                overlap_factor: 1,
                pr_update: 0.0,
                ..base.clone()
            };
            run_point(&p, s).expect("point runs").avg_retrieve_io()
        },
    );

    let mut rows = Vec::new();
    for (i, &n) in sweep.iter().enumerate() {
        let at = |j: usize| results[i * strategies.len() + j];
        rows.push(vec![n.to_string(), fnum(at(0)), fnum(at(1)), fnum(at(2))]);
    }
    println!(
        "{}",
        format_table(&["NumTop", "DFS", "BFS", "BFSNODUP"], &rows)
    );
    cfg.maybe_write_csv(&["NumTop", "DFS", "BFS", "BFSNODUP"], &rows);

    // The paper's log-log rendering (Figure 3's shape at a glance).
    let series: Vec<(char, Vec<(f64, f64)>)> = [('D', 0usize), ('B', 1), ('N', 2)]
        .into_iter()
        .map(|(label, j)| {
            (
                label,
                sweep
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| (n as f64, results[i * 3 + j]))
                    .collect(),
            )
        })
        .collect();
    println!(
        "{}",
        format_ascii_plot(
            "avg I/O per retrieve vs NumTop (D=DFS, B=BFS, N=BFSNODUP, *=overlap):",
            &series,
            true,
            true,
            60,
            16,
        )
    );

    // Headline checks against the paper's claims.
    let idx_of = |target: u64| {
        sweep
            .iter()
            .position(|&n| n >= target)
            .unwrap_or(sweep.len() - 1)
    };
    let hi = idx_of(base.parent_card / 10); // NumTop ~ card/10, well past the crossover
    let dfs_hi = results[hi * 3];
    let bfs_hi = results[hi * 3 + 1];
    println!(
        "at NumTop={}: DFS/BFS = {:.2} (paper: DFS loses large) {}",
        sweep[hi],
        dfs_hi / bfs_hi,
        if dfs_hi > bfs_hi {
            "[OK]"
        } else {
            "[MISMATCH]"
        }
    );
    let lo_dfs = results[0];
    let lo_bfs = results[1];
    println!(
        "at NumTop={}: BFS/DFS = {:.2} (paper: BFS slightly worse at low NumTop) {}",
        sweep[0],
        lo_bfs / lo_dfs,
        if lo_bfs >= lo_dfs {
            "[OK]"
        } else {
            "[MISMATCH]"
        }
    );
    let nd_ratio: f64 = (0..sweep.len())
        .map(|i| results[i * 3 + 2] / results[i * 3 + 1])
        .sum::<f64>()
        / sweep.len() as f64;
    println!(
        "mean BFSNODUP/BFS = {:.2} (paper: not much better than BFS) {}",
        nd_ratio,
        if nd_ratio > 0.7 { "[OK]" } else { "[MISMATCH]" }
    );
}
