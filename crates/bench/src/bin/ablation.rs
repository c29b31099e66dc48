//! Ablations of the design choices DESIGN.md calls out (not in the paper):
//!
//! 1. **Cache eviction policy** — the paper never specifies what happens
//!    when `SizeCache` is exceeded; we default to LRU. This compares LRU
//!    with random eviction under capacity pressure.
//! 2. **BFS join choice** — the paper's optimizer picks merge join or
//!    iterative substitution by cost; this runs both forced variants
//!    against the cost-based choice across NumTop to show the auto plan
//!    tracks the better one.
//! 3. **Buffer replacement policy** — the paper never names INGRES's
//!    policy; this runs DFS/BFS and Figures 5 and 7 under LRU and SIEVE.
//!
//! ```text
//! cargo run -p cor-bench --release --bin ablation [--scale F]
//! ```

use complexobj::{CacheConfig, EvictionPolicy, ExecOptions, JoinChoice, Strategy};
use cor_bench::{num_top_sweep, BenchConfig, Fig5, Fig7};
use cor_workload::{
    default_threads, fnum, format_table, generate, generate_sequence, parallel_map, Engine,
    EngineSpec, Params,
};

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let base = cfg.base_params();

    cache_policy_ablation(&cfg, &base);
    join_choice_ablation(&cfg, &base);
    buffer_policy_ablation(&cfg, &base);
}

/// Ablation 3 — buffer replacement policy. The paper never names
/// INGRES's policy. Under LRU and SIEVE this runs DFS and BFS at one
/// point, then Fig 5's ShareFactor sweep and Fig 7's two sharing cases.
/// The DFS/BFS ordering does not move; the clustering verdicts do,
/// because DFSCLUST's cluster scan and foreign-cluster probes compete for
/// the buffer. SIEVE moves Fig 5's crossover up a ShareFactor and lowers
/// both Fig 7 means.
fn buffer_policy_ablation(cfg: &BenchConfig, base: &Params) {
    use cor_pagestore::ReplacementPolicy;

    println!(
        "\nAblation 3 — buffer replacement policy (scale {})\n",
        cfg.scale
    );
    let p = Params {
        num_top: (base.parent_card / 50).max(1),
        pr_update: 0.0,
        ..base.clone()
    };
    let spec = EngineSpec::Standard(generate(&p).spec);
    let sequence = generate_sequence(&p);
    let policies = [
        ("LRU", ReplacementPolicy::Lru),
        ("SIEVE", ReplacementPolicy::Sieve),
    ];

    let mut rows = Vec::new();
    let mut winners = Vec::new();
    for (name, policy) in policies {
        let mut costs = Vec::new();
        for strategy in [Strategy::Dfs, Strategy::Bfs] {
            let engine = Engine::builder()
                .pool_pages(p.buffer_pages)
                .policy(policy)
                .build(&spec)
                .expect("engine builds");
            let r = engine.run_sequence(strategy, &sequence).expect("run");
            costs.push(r.avg_retrieve_io());
        }
        winners.push(if costs[0] < costs[1] { "DFS" } else { "BFS" });
        rows.push(vec![name.to_string(), fnum(costs[0]), fnum(costs[1])]);
    }
    println!("{}", format_table(&["policy", "DFS", "BFS"], &rows));
    let stable = winners.windows(2).all(|w| w[0] == w[1]);
    println!(
        "strategy ordering is policy-independent (winner: {}) {}",
        winners[0],
        if stable { "[OK]" } else { "[MISMATCH]" }
    );

    let figs: Vec<(Fig5, Fig7)> = policies
        .iter()
        .map(|&(_, policy)| (Fig5::run(base, cfg.scale, policy), Fig7::run(base, policy)))
        .collect();
    let at = |n: Option<u64>| n.map_or("none".to_string(), |n| n.to_string());
    let rows: Vec<Vec<String>> = policies
        .iter()
        .zip(&figs)
        .map(|(&(name, _), (f5, f7))| {
            vec![
                name.to_string(),
                at(f5.crossover().map(u64::from)),
                format!("{:.2}", f7.mean(0)),
                format!("{:.2}", f7.mean(1)),
                at(f7.crossover(0)),
                at(f7.crossover(1)),
            ]
        })
        .collect();
    println!(
        "\nFig 5 (NumTop {}, ShareFactor 1..=10) and Fig 7 (NumTop {:?}) under each policy\n",
        figs[0].0.num_top, figs[0].1.num_tops
    );
    println!(
        "{}",
        format_table(
            &[
                "policy",
                "Fig 5 BFS wins from SF",
                "Fig 7 mean OF=1",
                "Fig 7 mean OF=5",
                "BFS overtakes OF=1",
                "BFS overtakes OF=5",
            ],
            &rows
        )
    );
    let (lru, sieve) = (&figs[0].0, &figs[1].0);
    match (0..lru.costs.len()).find(|&i| lru.bfs_wins(i) != sieve.bfs_wins(i)) {
        Some(i) => println!(
            "Fig 5 winners first differ at ShareFactor {}: DFSCLUST/BFS TotCost \
             LRU {:.1}/{:.1}, SIEVE {:.1}/{:.1}",
            i + 1,
            lru.tot(i, 0),
            lru.tot(i, 1),
            sieve.tot(i, 0),
            sieve.tot(i, 1),
        ),
        None => println!("Fig 5 winners agree at every ShareFactor"),
    }
    let overlap_hurts = figs.iter().all(|(_, f7)| f7.mean(1) > f7.mean(0));
    println!(
        "Fig 7's OF=5 curve lies above OF=1 under every policy {}",
        if overlap_hurts { "[OK]" } else { "[MISMATCH]" }
    );
}

fn cache_policy_ablation(cfg: &BenchConfig, base: &Params) {
    println!(
        "Ablation 1 — cache eviction policy under capacity pressure (scale {})\n",
        cfg.scale
    );
    // Cache sized to ~10% of the units touched, forcing constant eviction.
    let p = Params {
        num_top: (base.parent_card / 20).max(1),
        pr_update: 0.1,
        size_cache: (base.size_cache / 10).max(4),
        ..base.clone()
    };
    let spec = EngineSpec::Standard(generate(&p).spec);
    let sequence = generate_sequence(&p);

    let mut rows = Vec::new();
    for (name, policy) in [
        ("LRU", EvictionPolicy::Lru),
        ("Random", EvictionPolicy::Random),
    ] {
        let engine = Engine::builder()
            .pool_pages(p.buffer_pages)
            .shards(p.shards)
            .cache(CacheConfig {
                capacity: p.size_cache,
                policy,
                ..CacheConfig::default()
            })
            .build(&spec)
            .expect("engine builds");
        let r = engine
            .run_sequence(Strategy::DfsCache, &sequence)
            .expect("run");
        let c = r.cache.expect("cache counters");
        let hit_rate = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
        rows.push(vec![
            name.to_string(),
            fnum(r.avg_io_per_query()),
            format!("{:.1}%", 100.0 * hit_rate),
            c.evictions.to_string(),
            c.invalidations.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "policy",
                "avg I/O",
                "hit rate",
                "evictions",
                "invalidations"
            ],
            &rows
        )
    );
}

fn join_choice_ablation(cfg: &BenchConfig, base: &Params) {
    println!(
        "Ablation 2 — BFS join choice across NumTop (scale {})\n",
        cfg.scale
    );
    let sweep = num_top_sweep(base.parent_card);
    let choices = [
        ("auto", JoinChoice::Auto),
        ("merge", JoinChoice::ForceMerge),
        ("iterative", JoinChoice::ForceIterative),
    ];
    let mut points = Vec::new();
    for &n in &sweep {
        for &(_, c) in &choices {
            points.push((n, c));
        }
    }
    let base = base.clone();
    let costs = parallel_map(points, default_threads(), |&(n, c)| {
        let p = Params {
            num_top: n,
            pr_update: 0.0,
            ..base.clone()
        };
        let generated = generate(&p);
        let engine = Engine::builder()
            .build_workload(&p, &generated, Strategy::Bfs)
            .expect("engine builds")
            .with_options(ExecOptions {
                join: c,
                ..ExecOptions::default()
            });
        let sequence = generate_sequence(&p);
        engine
            .run_sequence(Strategy::Bfs, &sequence)
            .expect("run")
            .avg_retrieve_io()
    });

    let mut rows = Vec::new();
    let mut auto_ok = true;
    for (i, &n) in sweep.iter().enumerate() {
        let auto = costs[i * 3];
        let merge = costs[i * 3 + 1];
        let iterative = costs[i * 3 + 2];
        if auto > merge.min(iterative) * 1.25 {
            auto_ok = false;
        }
        rows.push(vec![
            n.to_string(),
            fnum(auto),
            fnum(merge),
            fnum(iterative),
        ]);
    }
    println!(
        "{}",
        format_table(&["NumTop", "auto", "force-merge", "force-iterative"], &rows)
    );
    println!(
        "cost-based choice tracks the better plan at every NumTop {}",
        if auto_ok { "[OK]" } else { "[MISMATCH]" }
    );
}
