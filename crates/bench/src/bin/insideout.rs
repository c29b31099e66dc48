//! Inside vs outside caching on the OID representation.
//!
//! Sec. 3.2 dismisses inside caching by carrying over \[JHIN88\]'s
//! procedural-column result: "the parameters that determine the relative
//! performance of inside and outside caching are the frequency of updates,
//! the level of sharing, and the size of the cache. None of these is
//! affected by the choice of the primary representation. Consequently,
//! inside caching should also lose to outside caching over most of the
//! parameter space when OID representation is used. Therefore we restrict
//! our attention in this study to outside caching."
//!
//! This bench tests that carried-over claim directly: DFSCACHE with both
//! placements over exactly those three parameters.
//!
//! ```text
//! cargo run -p cor-bench --release --bin insideout [--scale F]
//! ```

use complexobj::{CacheConfig, CachePlacement, Strategy};
use cor_bench::BenchConfig;
use cor_workload::{fnum, format_table, generate, generate_sequence, Engine, EngineSpec, Params};

fn run(p: &Params, placement: CachePlacement, capacity: usize) -> f64 {
    let spec = EngineSpec::Standard(generate(p).spec);
    let engine = Engine::builder()
        .pool_pages(p.buffer_pages)
        .shards(p.shards)
        .cache(CacheConfig {
            capacity,
            placement,
            ..CacheConfig::default()
        })
        .build(&spec)
        .expect("engine builds");
    let sequence = generate_sequence(p);
    engine
        .run_sequence(Strategy::DfsCache, &sequence)
        .expect("run")
        .avg_io_per_query()
}

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let mut base = cfg.base_params();
    base.num_top = (base.parent_card / 50).max(1);
    base.use_factor = 5;

    println!(
        "Inside vs outside caching, OID column (Sec. 3.2's carried-over claim)\n\
         NumTop={}, UseFactor={} (scale {})\n",
        base.num_top, base.use_factor, cfg.scale
    );

    // --- axis 1: update frequency ---
    let mut rows = Vec::new();
    let mut outside_wins = 0usize;
    let mut cells = 0usize;
    for pu in [0.0, 0.2, 0.5] {
        let p = Params {
            pr_update: pu,
            ..base.clone()
        };
        let o = run(&p, CachePlacement::Outside, p.size_cache);
        let i = run(&p, CachePlacement::Inside, p.size_cache);
        cells += 1;
        if o <= i * 1.02 {
            outside_wins += 1;
        }
        rows.push(vec![format!("Pr(UPD)={pu}"), fnum(o), fnum(i)]);
    }

    // --- axis 2: sharing ---
    for uf in [1u32, 5, 25] {
        let p = Params {
            use_factor: uf,
            pr_update: 0.1,
            ..base.clone()
        };
        let o = run(&p, CachePlacement::Outside, p.size_cache);
        let i = run(&p, CachePlacement::Inside, p.size_cache);
        cells += 1;
        if o <= i * 1.02 {
            outside_wins += 1;
        }
        rows.push(vec![format!("UseFactor={uf}"), fnum(o), fnum(i)]);
    }

    // --- axis 3: cache size ---
    for pct in [100u64, 25, 5] {
        let p = Params {
            pr_update: 0.1,
            ..base.clone()
        };
        let capacity = ((p.num_units() * pct / 100).max(2)) as usize;
        let o = run(&p, CachePlacement::Outside, capacity);
        let i = run(&p, CachePlacement::Inside, capacity);
        cells += 1;
        if o <= i * 1.02 {
            outside_wins += 1;
        }
        rows.push(vec![format!("cache={pct}% of units"), fnum(o), fnum(i)]);
    }

    println!("{}", format_table(&["point", "outside", "inside"], &rows));
    println!(
        "outside caching wins (or ties) {outside_wins}/{cells} points \
         (paper: 'inside caching should also lose ... over most of the parameter space') {}",
        if outside_wins * 2 > cells {
            "[OK]"
        } else {
            "[MISMATCH]"
        }
    );
    println!(
        "(Inside hits are free — the copy rides in the scanned tuple — but each\n\
         copy serves one object, invalidation fans out to every referencing\n\
         object, and a bounded cache covers UseFactor x fewer objects.)"
    );
}
