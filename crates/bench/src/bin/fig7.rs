//! Figure 7: the effect of OverlapFactor on clustering.
//! Plots Cost(DFSCLUST)/Cost(BFS) vs NumTop for two databases with the
//! same ShareFactor = 5 shared differently:
//!
//! * curve 1 — OverlapFactor = 1, UseFactor = 5 (whole units shared);
//! * curve 2 — OverlapFactor = 5, UseFactor = 1 (overlapping units).
//!
//! Paper's shape: the OverlapFactor = 5 curve lies "considerably above"
//! the OverlapFactor = 1 curve (clustering degrades because a unit's
//! subobjects scatter), and the NumTop where BFS overtakes DFSCLUST moves
//! left as OverlapFactor grows.
//!
//! ```text
//! cargo run -p cor-bench --release --bin fig7 [--scale F]
//! ```

use cor_bench::{BenchConfig, Fig7};
use cor_pagestore::ReplacementPolicy;
use cor_workload::{format_ascii_plot, format_table};

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);

    println!(
        "Figure 7 — Cost(DFSCLUST)/Cost(BFS) vs NumTop, ShareFactor=5 both ways (scale {})\n",
        cfg.scale
    );

    let fig = Fig7::run(&cfg.base_params(), ReplacementPolicy::Lru);
    let ratio = |case: usize, i: usize| fig.ratios[case][i];

    let mut rows = Vec::new();
    for (i, &nt) in fig.num_tops.iter().enumerate() {
        rows.push(vec![
            nt.to_string(),
            format!("{:.2}", ratio(0, i)),
            format!("{:.2}", ratio(1, i)),
        ]);
    }
    println!(
        "{}",
        format_table(&["NumTop", "ratio OF=1,UF=5", "ratio OF=5,UF=1"], &rows)
    );
    cfg.maybe_write_csv(&["NumTop", "ratio_OF1_UF5", "ratio_OF5_UF1"], &rows);

    let series: Vec<(char, Vec<(f64, f64)>)> = ['1', '5']
        .into_iter()
        .enumerate()
        .map(|(case, mark)| {
            let points = fig.num_tops.iter().zip(&fig.ratios[case]);
            (mark, points.map(|(&n, &r)| (n as f64, r)).collect())
        })
        .collect();
    println!(
        "{}",
        format_ascii_plot(
            "Cost(DFSCLUST)/Cost(BFS) vs NumTop ('1'=OF1/UF5, '5'=OF5/UF1, *=overlap):",
            &series,
            true,
            false,
            60,
            14,
        )
    );

    // Headline checks.
    let (mean0, mean1) = (fig.mean(0), fig.mean(1));
    println!(
        "mean ratio: OF=1 {:.2} vs OF=5 {:.2} (paper: OF=5 considerably above) {}",
        mean0,
        mean1,
        if mean1 > mean0 { "[OK]" } else { "[MISMATCH]" }
    );
    match (fig.crossover(0), fig.crossover(1)) {
        (Some(a), Some(b)) => println!(
            "BFS overtakes DFSCLUST at NumTop {a} (OF=1) vs {b} (OF=5) \
             (paper: point B moves left to A) {}",
            if b <= a { "[OK]" } else { "[MISMATCH]" }
        ),
        (a, b) => {
            println!("crossovers: OF=1 {a:?}, OF=5 {b:?} (one side never crosses at this scale)")
        }
    }
}
