//! Multi-level (multi-dot) queries: duplicate elimination pays more the
//! deeper the exploration.
//!
//! Section 5.1 dismisses BFSNODUP for two-dot queries but predicts: "It
//! is clear that the benefits of BFSNODUP will increase with an increase
//! in the number of levels explored." This bench builds hierarchies of
//! depth 1–3 (the VLSI cells → paths → rectangles shape) with UseFactor
//! sharing at every level, and compares DFS / BFS / BFSNODUP on the same
//! multi-dot query. Shared references multiply through the levels, so the
//! BFSNODUP/BFS ratio should fall as depth grows.
//!
//! ```text
//! cargo run -p cor-bench --release --bin multilevel [--scale F]
//! ```

use complexobj::multilevel::MultiDotQuery;
use complexobj::{RetAttr, Strategy};
use cor_bench::BenchConfig;
use cor_workload::{
    fnum, format_table, generate_hierarchy_specs, snapshot_hierarchy, total_hierarchy_io, Engine,
    EngineSpec, HierarchyParams,
};

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let top_card = ((4000.0 * cfg.scale).round() as u64).max(100);
    // Small NumTop: the per-level joins run as index probes, where
    // duplicate elimination translates directly into fewer probes. (At
    // large NumTop every plan is a merge scan and dedup only trims the
    // temporary.)
    let num_top = (top_card / 400).max(2);
    let queries = cfg.seq.unwrap_or(25);

    println!(
        "Multi-level queries — {} top objects, fan-out 5, UseFactor 5, NumTop {}, {} queries/point\n",
        top_card, num_top, queries
    );

    let strategies = [Strategy::Dfs, Strategy::Bfs, Strategy::BfsNoDup];
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for levels in 1..=3usize {
        let hp = HierarchyParams {
            levels,
            top_card,
            fan_out: 5,
            use_factor: 5,
            seed: 7 + levels as u64,
            ..HierarchyParams::default()
        };
        let engine = Engine::builder()
            .pool_pages(hp.buffer_pages)
            .build(&EngineSpec::Levels(generate_hierarchy_specs(&hp)))
            .expect("hierarchy builds");

        let mut costs = Vec::new();
        for s in strategies {
            for db in engine.levels() {
                db.pool().flush_and_clear().expect("cold start");
            }
            let before = snapshot_hierarchy(engine.levels());
            let mut values = 0u64;
            for i in 0..queries as u64 {
                let lo = (i * 97) % (top_card - num_top);
                let q = MultiDotQuery {
                    lo,
                    hi: lo + num_top - 1,
                    attr: RetAttr::Ret1,
                };
                let out = engine.retrieve_multilevel(s, &q).expect("runs");
                values += out.values.len() as u64;
            }
            let io = total_hierarchy_io(engine.levels(), &before) as f64 / queries as f64;
            costs.push((io, values));
        }
        let ratio = costs[2].0 / costs[1].0;
        ratios.push(ratio);
        rows.push(vec![
            format!("{}", levels + 1),
            fnum(costs[0].0),
            fnum(costs[1].0),
            fnum(costs[2].0),
            format!("{ratio:.2}"),
            costs[1].1.to_string(),
            costs[2].1.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "dots",
                "DFS",
                "BFS",
                "BFSNODUP",
                "NODUP/BFS",
                "values(BFS)",
                "values(NODUP)"
            ],
            &rows
        )
    );

    // Sec. 5.1's full claim: the benefit of BFSNODUP "will increase with
    // an increase in the number of levels explored. BUT our experiments
    // have shown that the benefit so obtained is marginal at best.
    // Consequently, BFSNODUP is not a strategy worth pursuing." The
    // reproduction target is therefore: duplicates demonstrably multiply
    // through the levels, the NODUP/BFS ratio drifts (at most) gently
    // below 1 with depth, and never becomes a decisive win.
    let non_increasing = ratios.windows(2).all(|w| w[1] <= w[0] + 0.02);
    let marginal = ratios.iter().all(|r| *r > 0.7 && *r < 1.05);
    println!(
        "NODUP/BFS ratios by depth: {:?} — non-increasing {} and marginal {} \
         (paper Sec. 5.1: benefit grows with levels but is 'marginal at best') {}",
        ratios.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>(),
        non_increasing,
        marginal,
        if non_increasing && marginal {
            "[OK]"
        } else {
            "[note]"
        }
    );
    println!(
        "(values(NODUP) < values(BFS) shows duplicate references multiplying through\n\
         the levels and being eliminated — yet the I/O saved stays small, because the\n\
         dominant costs are the per-level scans/probes, exactly as the paper found.)"
    );
}
