//! Figure 5: ParCost / ChildCost / TotCost as a function of ShareFactor,
//! for DFSCLUST (5a) and BFS (5b), at NumTop = 200.
//!
//! Paper's shape:
//! * DFSCLUST — ParCost **increases** as ShareFactor decreases (better
//!   clustering interleaves more subobjects between consecutive objects);
//!   ChildCost decreases; the total is dominated by ChildCost.
//! * BFS — ParCost is flat; ChildCost **decreases** as ShareFactor
//!   increases because |ChildRel| = 50,000/ShareFactor shrinks the merge
//!   join. A crossover ShareFactor exists beyond which BFS wins.
//!
//! ```text
//! cargo run -p cor-bench --release --bin fig5 [--scale F]
//! ```

use complexobj::Strategy;
use cor_bench::{BenchConfig, Fig5};
use cor_pagestore::ReplacementPolicy;
use cor_workload::{fnum, format_table};

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let fig = Fig5::run(&cfg.base_params(), cfg.scale, ReplacementPolicy::Lru);

    println!(
        "Figure 5 — cost breakup vs ShareFactor at NumTop={} (scale {})\n",
        fig.num_top, cfg.scale
    );

    let mut all_rows: Vec<Vec<String>> = Vec::new();
    for (si, s) in Fig5::STRATEGIES.iter().enumerate() {
        let label = if *s == Strategy::DfsClust {
            "Figure 5(a) DFSCLUST"
        } else {
            "Figure 5(b) BFS"
        };
        let mut rows = Vec::new();
        for (i, costs) in fig.costs.iter().enumerate() {
            let (par, child) = costs[si];
            rows.push(vec![
                (i + 1).to_string(),
                fnum(par),
                fnum(child),
                fnum(fig.tot(i, si)),
            ]);
        }
        println!("{label}");
        println!(
            "{}",
            format_table(&["ShareFactor", "ParCost", "ChildCost", "TotCost"], &rows)
        );
        all_rows.extend(rows.iter().cloned().map(|mut r| {
            r.insert(0, s.name().to_string());
            r
        }));
    }
    cfg.maybe_write_csv(
        &["strategy", "ShareFactor", "ParCost", "ChildCost", "TotCost"],
        &all_rows,
    );

    // Headline checks.
    let (clu, bfs) = (|i: usize| fig.costs[i][0], |i: usize| fig.costs[i][1]);
    let last = fig.costs.len() - 1;

    let par_trend = clu(0).0 > clu(last).0;
    println!(
        "DFSCLUST ParCost falls as ShareFactor rises ({} -> {}) {}",
        fnum(clu(0).0),
        fnum(clu(last).0),
        if par_trend { "[OK]" } else { "[MISMATCH]" }
    );
    let child_trend = clu(0).1 < clu(last).1;
    println!(
        "DFSCLUST ChildCost rises with ShareFactor ({} -> {}) {}",
        fnum(clu(0).1),
        fnum(clu(last).1),
        if child_trend { "[OK]" } else { "[MISMATCH]" }
    );
    let bfs_child_trend = bfs(0).1 > bfs(last).1;
    println!(
        "BFS ChildCost falls with ShareFactor ({} -> {}) {}",
        fnum(bfs(0).1),
        fnum(bfs(last).1),
        if bfs_child_trend {
            "[OK]"
        } else {
            "[MISMATCH]"
        }
    );
    match fig.crossover() {
        Some(sf) => {
            println!("BFS beats DFSCLUST from ShareFactor {sf} (paper: crossover at ~4.7) [OK]")
        }
        None => println!("no crossover in 1..=10 (paper: crossover at ~4.7) [MISMATCH]"),
    }
}
