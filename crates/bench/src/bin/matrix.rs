//! The representation-matrix comparison — the "future study" the paper
//! defers in Sec. 2.4 ("compare points across the columns"), built on the
//! same workload machinery as the in-column figures.
//!
//! Nine systems (OID with BFS/DFSCACHE; procedural with every meaningful
//! cached representation, indexable and scan-bound; value-based) run the
//! identical query/update sequences while Pr(UPDATE) sweeps.
//!
//! Expected shape:
//! * value-based wins retrieve-only workloads (objects carry everything)
//!   and collapses under update-heavy sharing (replica maintenance);
//! * uncached procedural with non-indexable queries is the worst
//!   retriever (a relation scan per object), and caching rescues it;
//! * OID sits between, with its caching point tracking Fig. 4.
//!
//! ```text
//! cargo run -p cor-bench --release --bin matrix [--scale F]
//! ```

use cor_bench::BenchConfig;
use cor_workload::{
    default_threads, fnum, format_table, generate_matrix, parallel_map, run_matrix_point,
    MatrixSystem, Params,
};

fn main() {
    let cfg = BenchConfig::from_args(&[], &[]);
    let mut base = cfg.base_params();
    base.num_top = ((50.0 * cfg.scale).round() as u64).clamp(1, base.parent_card);
    let pr_updates = [0.0, 0.2, 0.5, 0.8];

    println!(
        "Representation matrix — avg I/O per query, NumTop={}, UseFactor={} (scale {})\n",
        base.num_top, base.use_factor, cfg.scale
    );

    let mut points = Vec::new();
    for &pu in &pr_updates {
        for system in MatrixSystem::ALL {
            points.push((pu, system));
        }
    }
    let results = parallel_map(points, default_threads(), |&(pu, system)| {
        let p = Params {
            pr_update: pu,
            ..base.clone()
        };
        let spec = generate_matrix(&p);
        run_matrix_point(&p, &spec, system).expect("system runs")
    });

    let headers: Vec<String> = std::iter::once("system".to_string())
        .chain(pr_updates.iter().map(|p| format!("Pr(UPD)={p}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for (j, system) in MatrixSystem::ALL.iter().enumerate() {
        let mut row = vec![system.name().to_string()];
        for (i, _) in pr_updates.iter().enumerate() {
            row.push(fnum(
                results[i * MatrixSystem::ALL.len() + j].avg_io_per_query(),
            ));
        }
        rows.push(row);
    }
    println!("{}", format_table(&header_refs, &rows));
    cfg.maybe_write_csv(&header_refs, &rows);

    let at = |i_pu: usize, system: MatrixSystem| {
        let j = MatrixSystem::ALL.iter().position(|s| *s == system).unwrap();
        &results[i_pu * MatrixSystem::ALL.len() + j]
    };

    // Headline checks.
    let value0 = at(0, MatrixSystem::ValueBased).avg_io_per_query();
    let others0_min = MatrixSystem::ALL
        .iter()
        .filter(|s| **s != MatrixSystem::ValueBased)
        .map(|s| at(0, *s).avg_io_per_query())
        .fold(f64::INFINITY, f64::min);
    println!(
        "retrieve-only: VALUE {} vs best other {} (inlining wins reads) {}",
        fnum(value0),
        fnum(others0_min),
        if value0 <= others0_min {
            "[OK]"
        } else {
            "[note]"
        }
    );

    let hi = pr_updates.len() - 1;
    let value_upd = at(hi, MatrixSystem::ValueBased).avg_update_io();
    let oid_upd = at(hi, MatrixSystem::OidBfs).avg_update_io();
    println!(
        "update-heavy: VALUE update cost {} vs OID {} (replica maintenance x UseFactor) {}",
        fnum(value_upd),
        fnum(oid_upd),
        if value_upd > oid_upd {
            "[OK]"
        } else {
            "[MISMATCH]"
        }
    );

    let scan_exec = at(0, MatrixSystem::ProcExecuteScan).avg_retrieve_io();
    let scan_cached = at(0, MatrixSystem::ProcScanOutsideValues).avg_retrieve_io();
    println!(
        "non-indexable procedural: exec {} vs cached {} (caching rescues scans) {}",
        fnum(scan_exec),
        fnum(scan_cached),
        if scan_cached < scan_exec {
            "[OK]"
        } else {
            "[MISMATCH]"
        }
    );

    let inside = at(1, MatrixSystem::ProcInsideValues).avg_io_per_query();
    let outside = at(1, MatrixSystem::ProcOutsideValues).avg_io_per_query();
    println!(
        "sharing + updates: inside caching {} vs outside {} ([JHIN88]: outside wins) {}",
        fnum(inside),
        fnum(outside),
        if outside <= inside { "[OK]" } else { "[note]" }
    );
}
