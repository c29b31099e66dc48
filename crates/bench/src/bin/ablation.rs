//! Ablations of the design choices DESIGN.md calls out (not in the paper):
//!
//! 1. **Cache eviction policy** — the paper never specifies what happens
//!    when `SizeCache` is exceeded; we default to LRU. This compares LRU
//!    with random eviction under capacity pressure.
//! 2. **BFS join choice** — the paper's optimizer picks merge join or
//!    iterative substitution by cost; this runs both forced variants
//!    against the cost-based choice across NumTop to show the auto plan
//!    tracks the better one.
//!
//! ```text
//! cargo run -p cor-bench --release --bin ablation [--scale F]
//! ```

use complexobj::{CacheConfig, EvictionPolicy, ExecOptions, JoinChoice, Strategy};
use cor_bench::{num_top_sweep, BenchConfig};
use cor_workload::{
    default_threads, fnum, format_table, generate, generate_sequence, parallel_map, Engine,
    EngineSpec, Params,
};

fn main() {
    let cfg = BenchConfig::from_args();
    let base = cfg.base_params();

    cache_policy_ablation(&cfg, &base);
    join_choice_ablation(&cfg, &base);
    buffer_policy_ablation(&cfg, &base);
}

/// Ablation 3 — buffer replacement policy. The paper never names INGRES's
/// policy; the claim to defend is that the *strategy ordering* (who wins)
/// does not hinge on our choice of LRU.
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

    let mut rows = Vec::new();
    let mut winners = Vec::new();
    for (name, policy) in [
        ("LRU", ReplacementPolicy::Lru),
        ("SIEVE", ReplacementPolicy::Sieve),
    ] {
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
