//! The procedural-representation study the paper builds on (\[JHIN88\],
//! summarized in Sec. 2.3/3.2): caching works for procedural attributes,
//! and outside caching beats inside caching — "especially true when the
//! size of the cache is limited and there is some sharing of subobjects."
//!
//! Two sweeps over the procedural column:
//! 1. Pr(UPDATE) sweep at the default cache size — shows where caching
//!    stops paying (the analogue of the OID column's Fig. 4 update axis);
//! 2. cache-size sweep at fixed sharing and update rate — shows outside
//!    caching's advantage growing as the cache shrinks (shared entries
//!    make better use of scarce capacity than per-object copies).
//!
//! ```text
//! cargo run -p cor-bench --release --bin jhin88 [--scale F]
//! ```

use cor_bench::BenchConfig;
use cor_workload::{
    default_threads, fnum, format_table, generate_matrix, parallel_map, run_matrix_point,
    MatrixSystem, Params,
};

// The scan-bound (non-indexable) procedural configurations: executing the
// stored query costs a relation scan, which is where [JHIN88]'s caching
// results live. (The indexable variants execute in a page or two and have
// nothing to cache away — see the `matrix` bench.)
const SYSTEMS: [MatrixSystem; 4] = [
    MatrixSystem::ProcExecuteScan,
    MatrixSystem::ProcScanOutsideValues,
    MatrixSystem::ProcScanOutsideOids,
    MatrixSystem::ProcScanInsideValues,
];

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let mut base = cfg.base_params();
    base.num_top = ((30.0 * cfg.scale).round() as u64).clamp(1, base.parent_card);
    base.use_factor = 5; // sharing: 5 objects store each query

    println!(
        "[JHIN88] procedural caching study — NumTop={}, UseFactor={} (scale {})\n",
        base.num_top, base.use_factor, cfg.scale
    );

    // --- sweep 1: update frequency ---
    let pr_updates = [0.0, 0.1, 0.3, 0.6, 0.9];
    let mut points = Vec::new();
    for &pu in &pr_updates {
        for s in SYSTEMS {
            points.push((pu, s));
        }
    }
    let results = parallel_map(points, default_threads(), |&(pu, s)| {
        let p = Params {
            pr_update: pu,
            ..base.clone()
        };
        let spec = generate_matrix(&p);
        run_matrix_point(&p, &spec, s)
            .expect("runs")
            .avg_io_per_query()
    });

    println!("sweep 1 — avg I/O per query vs Pr(UPDATE):");
    let mut rows = Vec::new();
    for (i, &pu) in pr_updates.iter().enumerate() {
        let mut row = vec![format!("{pu:.1}")];
        for j in 0..SYSTEMS.len() {
            row.push(fnum(results[i * SYSTEMS.len() + j]));
        }
        rows.push(row);
    }
    println!(
        "{}",
        format_table(&["Pr(UPD)", "exec", "out-val", "out-oid", "in-val"], &rows)
    );

    let cached_wins_at_0 = results[1] < results[0];
    println!(
        "caching works at Pr(UPDATE)=0: out-val {} vs exec {} {}",
        fnum(results[1]),
        fnum(results[0]),
        if cached_wins_at_0 {
            "[OK]"
        } else {
            "[MISMATCH]"
        }
    );
    let last = (pr_updates.len() - 1) * SYSTEMS.len();
    let exec_wins_at_09 = results[last] <= results[last + 1];
    println!(
        "caching stops paying at high Pr(UPDATE): exec {} vs out-val {} {}",
        fnum(results[last]),
        fnum(results[last + 1]),
        if exec_wins_at_09 { "[OK]" } else { "[note]" }
    );

    // --- sweep 2: cache size (outside vs inside under a limited cache) ---
    let fractions: [(u64, &str); 3] = [(100, "100%"), (25, "25%"), (10, "10%")];
    let mut points = Vec::new();
    for &(pct, _) in &fractions {
        for s in [
            MatrixSystem::ProcScanOutsideValues,
            MatrixSystem::ProcScanInsideValues,
        ] {
            points.push((pct, s));
        }
    }
    let base2 = Params {
        pr_update: 0.15,
        ..base.clone()
    };
    let results2 = parallel_map(points, default_threads(), |&(pct, s)| {
        // SizeCache as a percentage of the number of distinct queries.
        let distinct = base2.num_units();
        let p = Params {
            size_cache: ((distinct * pct / 100).max(2)) as usize,
            ..base2.clone()
        };
        let spec = generate_matrix(&p);
        run_matrix_point(&p, &spec, s)
            .expect("runs")
            .avg_io_per_query()
    });

    println!("\nsweep 2 — avg I/O per query vs cache size (Pr(UPDATE)=0.15):");
    let mut rows = Vec::new();
    for (i, &(_, label)) in fractions.iter().enumerate() {
        rows.push(vec![
            label.to_string(),
            fnum(results2[i * 2]),
            fnum(results2[i * 2 + 1]),
        ]);
    }
    println!(
        "{}",
        format_table(&["cache size", "outside", "inside"], &rows)
    );

    let mut ok = true;
    for (i, &(_, label)) in fractions.iter().enumerate() {
        if results2[i * 2] > results2[i * 2 + 1] * 1.05 {
            ok = false;
            println!(
                "  at {label}: outside {} > inside {}",
                fnum(results2[i * 2]),
                fnum(results2[i * 2 + 1])
            );
        }
    }
    println!(
        "outside caching is never (materially) worse than inside {}",
        if ok { "[OK]" } else { "[MISMATCH]" }
    );
    let outside_gain = results2[4] / results2[0]; // 10% vs 100% cache
    let inside_gain = results2[5] / results2[1];
    println!(
        "shrinking the cache hurts inside more: outside degrades x{:.2}, inside x{:.2} {}",
        outside_gain,
        inside_gain,
        if inside_gain >= outside_gain * 0.95 {
            "[OK]"
        } else {
            "[note]"
        }
    );
}
