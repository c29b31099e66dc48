//! Section 5.3: the SMART strategy under a mixed query workload.
//!
//! "If the queries against the database have a good mix (some low NumTop
//! queries, and some large NumTop queries), then the above solution will
//! make caching outperform BFS for most values of NumTop, provided
//! Pr(UPDATE) is not too high."
//!
//! One sequence mixes NumTop values; BFS, DFSCACHE and SMART each run the
//! identical sequence and the per-retrieve I/O is bucketed by NumTop.
//! Expected shape: SMART ≈ DFSCACHE at low NumTop (better than BFS), and
//! ≈ BFS at high NumTop (where plain DFSCACHE degrades) — i.e. SMART
//! tracks the better of the two everywhere.
//!
//! ```text
//! cargo run -p cor-bench --release --bin smart [--scale F]
//! ```

use complexobj::{ExecOptions, Strategy};
use cor_bench::BenchConfig;
use cor_workload::{fnum, format_table, generate, generate_mixed_sequence, Engine};
use std::collections::BTreeMap;

/// Find the NumTop band where DFSCACHE stops beating BFS and return a
/// threshold inside it (the paper's empirically chosen N).
fn calibrate_threshold(base: &cor_workload::Params, mix: &[u64]) -> u64 {
    use cor_workload::{run_point, Params};
    let probe = Params {
        sequence_len: (base.sequence_len / 3).max(30),
        pr_update: base.pr_update,
        ..base.clone()
    };
    let mut last_win = 0u64;
    let mut first_loss = *mix.last().expect("non-empty mix");
    for &n in mix {
        let p = Params {
            num_top: n,
            ..probe.clone()
        };
        let cache = run_point(&p, Strategy::DfsCache)
            .expect("probe runs")
            .avg_retrieve_io();
        let bfs = run_point(&p, Strategy::Bfs)
            .expect("probe runs")
            .avg_retrieve_io();
        if cache <= bfs {
            last_win = n;
        } else {
            first_loss = n;
            break;
        }
    }
    (last_win + first_loss).div_euclid(2).max(1)
}

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let mut base = cfg.base_params();
    if cfg.seq.is_none() {
        base.sequence_len = (base.sequence_len * 2).max(120); // enough of each bucket
    }
    base.pr_update = 0.05;
    let mix: Vec<u64> = [10u64, 50, 200, 1000, 5000]
        .iter()
        .map(|&n| ((n as f64 * cfg.scale).round() as u64).clamp(1, base.parent_card))
        .collect();

    // Calibrate SMART's threshold N the way the paper did ("N = 300 in our
    // experiments" — an empirical choice for their setup): probe where
    // DFSCACHE stops beating BFS and put N between that NumTop and the
    // next. At full scale this lands near the paper's 300.
    let smart_threshold = calibrate_threshold(&base, &mix);

    println!(
        "Section 5.3 — SMART vs BFS vs DFSCACHE under a NumTop mix {:?}\n\
         (scale {}, Pr(UPDATE)={}, SMART threshold N={})\n",
        mix, cfg.scale, base.pr_update, smart_threshold
    );

    let generated = generate(&base);
    let sequence = generate_mixed_sequence(&base, &mix);
    let opts = ExecOptions {
        smart_threshold,
        ..ExecOptions::default()
    };

    let strategies = [Strategy::Bfs, Strategy::DfsCache, Strategy::Smart];
    let mut buckets: Vec<BTreeMap<u64, (u64, u64)>> = vec![BTreeMap::new(); strategies.len()];
    let mut totals = Vec::new();
    for (j, &s) in strategies.iter().enumerate() {
        let engine = Engine::builder()
            .build_workload(&base, &generated, s)
            .expect("engine builds")
            .with_options(opts);
        let (result, trace) = engine.run_sequence_trace(s, &sequence).expect("run");
        for t in &trace {
            if !t.is_update {
                let e = buckets[j].entry(t.num_top).or_insert((0, 0));
                e.0 += t.io;
                e.1 += 1;
            }
        }
        totals.push(result.avg_io_per_query());
    }

    let mut rows = Vec::new();
    for &n in buckets[0].keys() {
        let cell = |j: usize| {
            let (io, cnt) = buckets[j][&n];
            fnum(io as f64 / cnt as f64)
        };
        rows.push(vec![n.to_string(), cell(0), cell(1), cell(2)]);
    }
    println!(
        "{}",
        format_table(&["NumTop", "BFS", "DFSCACHE", "SMART"], &rows)
    );
    println!(
        "overall avg I/O per query: BFS {} | DFSCACHE {} | SMART {}\n",
        fnum(totals[0]),
        fnum(totals[1]),
        fnum(totals[2])
    );

    // Threshold sensitivity: how much does the choice of N matter? The
    // paper fixes N = 300 without a sweep; this shows the cost surface is
    // flat-bottomed around any N that separates the DFSCACHE-wins band
    // from the BFS-wins band.
    let candidates: Vec<u64> = {
        let mut c: Vec<u64> = mix.to_vec();
        c.push(1);
        c.push(base.parent_card);
        c.sort_unstable();
        c.dedup();
        c
    };
    println!("threshold sensitivity (overall avg I/O per query under the same mix):");
    let mut sens_rows = Vec::new();
    for &n in &candidates {
        let engine = Engine::builder()
            .build_workload(&base, &generated, Strategy::Smart)
            .expect("engine builds")
            .with_options(ExecOptions {
                smart_threshold: n,
                ..ExecOptions::default()
            });
        let (result, _) = engine
            .run_sequence_trace(Strategy::Smart, &sequence)
            .expect("run");
        sens_rows.push(vec![n.to_string(), fnum(result.avg_io_per_query())]);
    }
    println!("{}", format_table(&["N", "avg I/O"], &sens_rows));

    // Headline checks: SMART within a modest factor of the best per bucket.
    let mut ok = true;
    for &n in buckets[0].keys() {
        let avg = |j: usize| {
            let (io, cnt) = buckets[j][&n];
            io as f64 / cnt as f64
        };
        let best = avg(0).min(avg(1));
        if avg(2) > best * 1.35 {
            ok = false;
            println!(
                "  NumTop={n}: SMART {} vs best {} — above tolerance",
                fnum(avg(2)),
                fnum(best)
            );
        }
    }
    println!(
        "SMART tracks the better of BFS/DFSCACHE in every bucket {}",
        if ok { "[OK]" } else { "[MISMATCH]" }
    );
    let overall_ok = totals[2] <= totals[0].min(totals[1]) * 1.1;
    println!(
        "SMART overall beats (or matches) both pure strategies {}",
        if overall_ok { "[OK]" } else { "[note]" }
    );
}
