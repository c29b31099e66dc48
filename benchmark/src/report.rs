//! Turns passes and probe results into the named metrics.

use crate::build::Disk;
use crate::metrics::Values;
use crate::stats::{median, median_slice_rate, percentile};
use crate::workload::{Pass, WorkloadDef, SLICES};

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Set `name` to percentile `p` of `samples_ns` in ms, with the sample
/// count beside it. A refused percentile ends the run with the refusal
/// as its message (`run_pass` refuses such a `--seconds` before set-up).
fn set_percentile(
    v: &mut Values,
    name: &'static str,
    samples_ns: &[u64],
    p: f64,
) -> Result<(), String> {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let ns = percentile(&sorted, p).map_err(|e| format!("{name} {e}; raise --seconds"))?;
    v.set_with(name, ns_to_ms(ns), format!("n={}", sorted.len()));
    Ok(())
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Result<Values, String> {
    let mut v = Values::default();
    let x = &pass.exact;
    v.set_with(
        "setup_s",
        median(&pass.setup_s),
        format!("median of {} set-ups", pass.setup_s.len()),
    );
    v.set_with(
        "qps",
        median_slice_rate(&pass.busy_ns, SLICES),
        format!("median of {SLICES} slices, n={}", pass.busy_ns.len()),
    );
    set_percentile(&mut v, "retrieve_p50_ms", &pass.retrieve_ns, 0.50)?;
    set_percentile(&mut v, "retrieve_p90_ms", &pass.retrieve_ns, 0.90)?;
    set_percentile(&mut v, "update_p50_ms", &pass.update_ns, 0.50)?;
    set_percentile(&mut v, "update_p90_ms", &pass.update_ns, 0.90)?;
    v.set(
        "io_per_query",
        x.lifetime.io() as f64 / x.lifetime_ops as f64,
    );
    v.set(
        "write_bytes_per_query",
        x.lifetime.write_bytes() as f64 / x.lifetime_ops as f64,
    );
    v.set("store_pages", x.store_pages as f64);
    v.set("peak_rss_mb", pass.peak_rss_mb);
    Ok(v)
}

/// The per-layer metrics: workload counts and tails from the traced pass,
/// unit costs from the probes, the ledger that multiplies the two, and
/// the tracing overhead against the untraced pass.
///
/// `untraced` and `traced` hold the run's two passes of each kind (the
/// order was untraced, traced, traced, untraced); counts and tails come
/// from the first traced pass. `v` arrives holding the probes' metrics;
/// `wal_probe_record_bytes` is the size of the records the WAL append
/// probes wrote.
pub fn per_layer(
    def: &WorkloadDef,
    untraced: [&Pass; 2],
    traced_passes: [&Pass; 2],
    mut v: Values,
    wal_probe_record_bytes: f64,
) -> Result<Values, String> {
    let traced = traced_passes[0];
    let x = &traced.exact;
    // Per-query counts are what the queries caused; what the harness's
    // own checkpoints read, wrote and logged is left out of them (it is
    // in the end-to-end counts and in the ledger).
    let w = &x.window;
    let q = w.since(&x.window_checkpoints);
    let ops = x.window_ops as f64;
    v.set("disk.reads_per_query", q.reads as f64 / ops);
    v.set("disk.writes_per_query", q.writes as f64 / ops);
    v.set("wal.records_per_query", q.wal_records as f64 / ops);
    v.set("wal.bytes_per_query", q.wal_bytes as f64 / ops);
    v.set("wal.fsyncs_per_query", q.wal_fsyncs as f64 / ops);
    v.set("wal.images_per_query", q.wal_images as f64 / ops);

    let o = traced
        .observed
        .expect("the traced engine exposes telemetry");
    v.set("pool.hits_per_query", o.pool_hits as f64 / ops);
    v.set("pool.misses_per_query", o.pool_misses as f64 / ops);
    v.set(
        "pool.hit_ratio",
        ratio(o.pool_hits, o.pool_hits + o.pool_misses),
    );
    v.set("pool.evictions_per_query", o.pool_evictions as f64 / ops);
    v.set("pool.writebacks_per_query", o.pool_writebacks as f64 / ops);
    v.set(
        "cache.probe_hit_ratio",
        ratio(o.cache_hits, o.cache_hits + o.cache_misses),
    );
    v.set(
        "cache.invalidations_per_update",
        ratio(o.cache_invalidations, x.window_updates),
    );
    v.set(
        "strategy.values_per_query",
        ratio(x.window_values, x.window_retrieves),
    );

    let mut ckpt = traced.checkpoint_ns.clone();
    ckpt.sort_unstable();
    v.set_with(
        "wal.checkpoint_p50_ms",
        ns_to_ms(ckpt[ckpt.len() / 2]),
        format!("n={}", ckpt.len()),
    );
    v.set(
        "wal.checkpoint_max_ms",
        ns_to_ms(*ckpt.last().expect("checkpoints ran")),
    );
    v.set("wal.recover_ms", traced.recover_ms);

    set_percentile(&mut v, "engine.retrieve_p99_ms", &traced.retrieve_ns, 0.99)?;
    v.set(
        "engine.retrieve_max_ms",
        ns_to_ms(*traced.retrieve_ns.iter().max().expect("retrieves ran")),
    );
    v.set("engine.create_ms", traced.create_ms);
    v.set("engine.close_ms", traced.close_ms);
    v.set("engine.open_ms", traced.open_ms);

    // Ledger: count x unit cost / wall. The unit costs are the probes',
    // taken on idle structures, so each share is an estimate; what the
    // three do not explain is the upper bound on time spent inside
    // access, relational, core and engine code.
    let wall_ns = traced.wall_s() * 1e9;
    let probe = |name: &str| v.get(name).expect("the probes ran first");
    let (read_ns, write_ns, append_ns, sync_ns) = match def.engine.disk {
        Disk::Mem => (
            probe("disk.mem_read_ns"),
            probe("disk.mem_write_ns"),
            probe("wal.append_mem_ns"),
            0.0,
        ),
        Disk::File => {
            // The file append probe pays one fsync per eight records;
            // the workload's fsyncs are counted on their own, so take
            // the probe's share of them back out.
            let sync_ns = probe("wal.sync_us") * 1e3;
            let append_ns =
                (probe("wal.append_file_ns") - sync_ns / 8.0).max(probe("wal.append_mem_ns"));
            (
                probe("disk.file_read_ns"),
                probe("disk.file_write_ns"),
                append_ns,
                sync_ns,
            )
        }
    };
    let disk_ns = w.reads as f64 * read_ns + w.writes as f64 * write_ns;
    // A miss's disk read is the disk's time, not the pool's.
    let pool_ns = o.pool_hits as f64 * probe("pool.pin_hit_ns")
        + o.pool_misses as f64 * (probe("pool.pin_miss_ns") - probe("disk.mem_read_ns")).max(0.0);
    // An append's cost is the bytes it copies and checksums, so the log is
    // charged per byte at the probe's rate, not per record.
    let wal_ns =
        w.wal_bytes as f64 * append_ns / wal_probe_record_bytes + w.wal_fsyncs as f64 * sync_ns;
    for (name, share) in LEDGER
        .into_iter()
        .zip(ledger([disk_ns, pool_ns, wal_ns], wall_ns))
    {
        v.set(name, share);
    }

    // Tracing on against tracing off, over both passes of each kind: the
    // mirrored order cancels a drift across the run, and the two pairs
    // beside the number show how far order and noise move it.
    let wall = |passes: [&Pass; 2]| passes.map(Pass::wall_s);
    let (off, on) = (wall(untraced), wall(traced_passes));
    v.set_with(
        "trace.overhead_ratio",
        (on[0] + on[1]) / (off[0] + off[1]) - 1.0,
        format!(
            "pairs {:+.1} % traced second, {:+.1} % traced first",
            (on[0] / off[0] - 1.0) * 100.0,
            (on[1] / off[1] - 1.0) * 100.0
        ),
    );
    Ok(v)
}

/// The ledger's metrics, in the order [`ledger`] returns their values.
pub const LEDGER: [&str; 4] = [
    "disk.time_share",
    "pool.time_share",
    "wal.time_share",
    "engine.unattributed_share",
];

/// Shares of `wall_ns` that the three layer estimates explain, then what
/// is left: 1 - their sum, so the four add up by definition. Nothing is
/// scaled or clamped: estimates that overshoot the wall (a unit cost that
/// no longer describes what the workload pays) leave the remainder
/// negative, which [`ledger_in_range`] catches and the run reports.
pub fn ledger(layer_ns: [f64; 3], wall_ns: f64) -> [f64; 4] {
    let [disk, pool, wal] = layer_ns.map(|ns| ns / wall_ns);
    [disk, pool, wal, 1.0 - disk - pool - wal]
}

/// The ledger's self-check: every share, the remainder too, lies in [0, 1].
pub fn ledger_in_range(shares: &[f64]) -> bool {
    shares.iter().all(|s| (0.0..=1.0).contains(s))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_adds_up_and_an_overshoot_fails_its_check() {
        let shares = ledger([10.0, 55.0, 5.0], 100.0);
        assert_eq!(shares, [0.10, 0.55, 0.05, 1.0 - 0.10 - 0.55 - 0.05]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(ledger_in_range(&shares));
        // Count x unit cost beyond the wall: not scaled away, but reported.
        let over = ledger([10.0, 55.0, 60.0], 100.0);
        assert!(over[3] < 0.0 && !ledger_in_range(&over));
        assert!(!ledger_in_range(&ledger([120.0, 0.0, 0.0], 100.0)));
    }
}
