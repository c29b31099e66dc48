//! Section 6.2: the effect of NumChildRel — subobjects drawn from several
//! relations.
//!
//! Paper's finding: "none of our algorithms is significantly affected by
//! NumChildRel, at least if it is much less than NumTop." DFS strategies
//! (and hence caching/clustering) are insensitive; BFS must run one join
//! per relation, but each ChildRel and temporary shrinks correspondingly,
//! "almost balancing out" — until NumChildRel approaches NumTop and each
//! temporary holds only one or two OIDs.
//!
//! ```text
//! cargo run -p cor-bench --release --bin numchildrel [--scale F]
//! ```

use complexobj::Strategy;
use cor_bench::BenchConfig;
use cor_workload::{default_threads, fnum, format_table, parallel_map, run_point, Params};

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let base = cfg.base_params();
    let num_top = ((100.0 * cfg.scale).round() as u64).clamp(2, base.parent_card);
    let rels: Vec<usize> = [1usize, 2, 5, 10, 20, 50]
        .into_iter()
        .filter(|&n| {
            let p = Params {
                num_child_rels: n,
                num_top,
                pr_update: 0.0,
                ..base.clone()
            };
            p.validate().is_ok()
        })
        .collect();
    let strategies = [Strategy::Dfs, Strategy::Bfs, Strategy::DfsCache];

    println!(
        "Section 6.2 — average retrieve I/O vs NumChildRel at NumTop={} (scale {})\n",
        num_top, cfg.scale
    );

    let mut points = Vec::new();
    for &n in &rels {
        for &s in &strategies {
            points.push((n, s));
        }
    }
    let costs = parallel_map(points, default_threads(), |&(n, s)| {
        let p = Params {
            num_child_rels: n,
            num_top,
            pr_update: 0.0,
            ..base.clone()
        };
        run_point(&p, s).expect("point runs").avg_retrieve_io()
    });

    let mut rows = Vec::new();
    for (i, &n) in rels.iter().enumerate() {
        rows.push(vec![
            n.to_string(),
            fnum(costs[i * 3]),
            fnum(costs[i * 3 + 1]),
            fnum(costs[i * 3 + 2]),
        ]);
    }
    println!(
        "{}",
        format_table(&["NumChildRel", "DFS", "BFS", "DFSCACHE"], &rows)
    );

    // Headline checks: relative spread of each strategy across NumChildRel
    // (excluding the regime NumChildRel ~ NumTop where BFS is expected to
    // deteriorate).
    for (j, s) in strategies.iter().enumerate() {
        let in_regime: Vec<f64> = rels
            .iter()
            .enumerate()
            .filter(|(_, &n)| (n as u64) * 4 <= num_top)
            .map(|(i, _)| costs[i * 3 + j])
            .collect();
        if in_regime.len() < 2 {
            continue;
        }
        let min = in_regime.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = in_regime.iter().cloned().fold(0.0, f64::max);
        let spread = max / min;
        println!(
            "{}: max/min = {:.2} across NumChildRel << NumTop (paper: little effect) {}",
            s.name(),
            spread,
            if spread < 1.8 { "[OK]" } else { "[note]" }
        );
    }
}
