//! The metric tables — name, unit, direction, bound — and the value set a
//! run fills in. `BENCHMARK.json` is generated from these tables.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (per-layer metrics: 0).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off. Failures are not a metric here: the result
/// line carries `attempted` and `failed`, and any failure makes the run
/// incorrect. The timing and memory bounds are as wide as the shared
/// 2-vCPU box's run-to-run shifts demand (README, "Steadiness"), not as
/// tight as a user would wish.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "ops/s", Higher, 0.25),
    e2e("retrieve_p50_ms", "ms", Lower, 0.25),
    e2e("retrieve_p90_ms", "ms", Lower, 0.25),
    e2e("update_p50_ms", "ms", Lower, 0.25),
    e2e("update_p90_ms", "ms", Lower, 0.25),
    e2e("io_per_query", "pages", Lower, 0.05),
    e2e("write_bytes_per_query", "bytes", Lower, 0.03),
    e2e("store_pages", "pages", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Measured on the traced pass and by the layer probes; no bounds.
pub const PER_LAYER: &[MetricDef] = &[
    // pagestore::disk
    layer("disk.mem_read_ns", "ns", Lower),
    layer("disk.mem_write_ns", "ns", Lower),
    layer("disk.file_read_ns", "ns", Lower),
    layer("disk.file_write_ns", "ns", Lower),
    layer("disk.file_sync_us", "us", Lower),
    layer("disk.reads_per_query", "pages", Lower),
    layer("disk.writes_per_query", "pages", Lower),
    // pagestore::aio
    layer("aio.submit_wait_ns_per_page", "ns", Lower),
    // pagestore::buffer / policy
    layer("pool.pin_hit_ns", "ns", Lower),
    layer("pool.pin_miss_ns", "ns", Lower),
    layer("pool.dirty_evict_ns", "ns", Lower),
    layer("pool.pin_hit_ns_t2", "ns", Lower),
    layer("pool.hits_per_query", "count", Lower),
    layer("pool.misses_per_query", "count", Lower),
    layer("pool.hit_ratio", "ratio", Higher),
    layer("pool.evictions_per_query", "count", Lower),
    layer("pool.writebacks_per_query", "count", Lower),
    // access
    layer("btree.get_ns", "ns", Lower),
    layer("btree.get_pages_per_lookup", "pages", Lower),
    layer("btree.get_self_ns", "ns", Lower),
    layer("btree.range_ns_per_rec", "ns", Lower),
    layer("btree.update_ns", "ns", Lower),
    layer("btree.bulk_load_ns_per_rec", "ns", Lower),
    layer("heap.append_ns", "ns", Lower),
    layer("heap.scan_ns_per_rec", "ns", Lower),
    layer("sort.mem_ns_per_rec", "ns", Lower),
    layer("sort.spill_ns_per_rec", "ns", Lower),
    layer("sort.spill_runs", "count", Lower),
    layer("join.merge_ns_per_rec", "ns", Lower),
    layer("hash.get_ns", "ns", Lower),
    layer("hash.put_ns", "ns", Lower),
    // relational
    layer("record.decode_ns", "ns", Lower),
    layer("record.encode_ns", "ns", Lower),
    // wal
    layer("wal.append_mem_ns", "ns", Lower),
    layer("wal.append_file_ns", "ns", Lower),
    layer("wal.sync_us", "us", Lower),
    layer("wal.records_per_query", "count", Lower),
    layer("wal.bytes_per_query", "bytes", Lower),
    layer("wal.fsyncs_per_query", "count", Lower),
    layer("wal.images_per_query", "count", Lower),
    layer("wal.checkpoint_p50_ms", "ms", Lower),
    layer("wal.checkpoint_max_ms", "ms", Lower),
    layer("wal.recover_ms", "ms", Lower),
    // core
    layer("cache.probe_hit_ratio", "ratio", Higher),
    layer("cache.invalidations_per_update", "count", Lower),
    layer("strategy.values_per_query", "count", Higher),
    // workload::engine
    layer("engine.retrieve_p99_ms", "ms", Lower),
    layer("engine.retrieve_max_ms", "ms", Lower),
    layer("engine.create_ms", "ms", Lower),
    layer("engine.close_ms", "ms", Lower),
    layer("engine.open_ms", "ms", Lower),
    // ledger
    layer("disk.time_share", "ratio", Lower),
    layer("pool.time_share", "ratio", Lower),
    layer("wal.time_share", "ratio", Lower),
    layer("engine.unattributed_share", "ratio", Lower),
    // obs / tracing
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// Metrics whose value is a count the program made: two runs of the same
/// code on the same seed must report them bit-for-bit equal.
pub const EXACT: &[&str] = &["io_per_query", "write_bytes_per_query", "store_pages"];

/// Values of one run, in the order they were set.
#[derive(Default)]
pub struct Values {
    entries: Vec<Entry>,
}

pub struct Entry {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind a timing, or a note such as a refusal.
    pub note: String,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_with(name, value, String::new());
    }

    pub fn set_with(&mut self, name: &'static str, value: f64, note: String) {
        assert!(value.is_finite(), "{name} is not finite");
        assert!(self.get(name).is_none(), "{name} set twice");
        self.entries.push(Entry { name, value, note });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Human-readable lines, one per metric of `table`, in table order.
    /// Panics when a metric of the table was never set: that is a bug in
    /// the harness, not a property of the run.
    pub fn print(&self, table: &[MetricDef], workload: &str) {
        for def in table {
            let e = self
                .entries
                .iter()
                .find(|e| e.name == def.name)
                .unwrap_or_else(|| panic!("metric {} was never set", def.name));
            let note = if e.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", e.note)
            };
            println!(
                "{workload:<14} {:<30} {:>16} {}{note}",
                def.name,
                fmt_value(e.value),
                def.unit
            );
        }
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|def| {
                let v = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was never set", def.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name,
                    fmt_value(v),
                    def.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Shortest decimal that round-trips: every digit as measured, and valid
/// JSON (Rust prints no exponent for `f64`'s `Display`).
pub fn fmt_value(v: f64) -> String {
    format!("{v}")
}

/// `BENCHMARK.json`, generated so the file and the harness cannot drift.
pub fn benchmark_json(run_seconds: usize) -> String {
    let q = |s: &str| format!("\"{s}\"");
    let workloads: Vec<String> = crate::workload::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = HashSet::new();
        for w in &crate::workload::WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(EXACT
            .iter()
            .all(|n| END_TO_END.iter().any(|m| m.name == *n)));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(crate::RUN_SECONDS));
    }

    #[test]
    fn values_print_every_digit_and_valid_json_numbers() {
        assert_eq!(fmt_value(1.2034), "1.2034");
        assert_eq!(fmt_value(447.0), "447");
        assert_eq!(fmt_value(1e-7), "0.0000001");
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let table = &END_TO_END[..1];
        assert_eq!(
            v.to_json(table),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
    }
}
