#!/usr/bin/env bash
# Full local gate: formatting, lints, and the whole test suite.
# CI runs exactly this script; run it before pushing.
#
# Not part of this gate (about 15 minutes, and timing needs a quiet box):
# `scripts/pairs.sh <parent-ref>` runs the ten alternating parent/change
# pairs of benchmark/run.sh that every performance or no-gain claim rests
# on, and prints the table docs/benchmarks.md records.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> corstat smoke (observability gate)"
cargo run -q -p cor-bench --bin corstat -- --smoke

echo "==> corstat heat smoke (heat-map skew-detection gate)"
cargo run -q -p cor-bench --bin corstat -- --heat --smoke

echo "==> corstat trace smoke (causal trace trees vs the phase ledger)"
cargo run -q -p cor-bench --bin corstat -- --trace --smoke --json results/trace/smoke_trace.json

echo "==> explain smoke (phase-attribution + cost-model gate)"
cargo run -q -p cor-bench --bin explain -- --smoke --jsonl results/explain/smoke.jsonl

echo "==> explain replay (deterministic I/O regression gate)"
cargo run -q -p cor-bench --bin explain -- --replay results/explain/smoke.jsonl

echo "==> figs (figure fixed point: fig3/4/5/7, smart, multilevel, numchildrel, ablation, matrix, jhin88, insideout regenerate byte-identically)"
scripts/figs.sh

echo "==> crashtest smoke (durability gate: crash, recover, verify vs oracle)"
cargo run -q --release -p cor-bench --bin crashtest -- --smoke

echo "==> crashtest --logical smoke (lifecycle gate: crash, reopen via catalog, verify answers; BFS leg crashes under a live temporary)"
cargo run -q --release -p cor-bench --bin crashtest -- --logical --smoke

echo "==> iobench smoke (batched-I/O + queue-depth sweep gate: depth-1 identity, checksums, submission bounds)"
cargo run -q --release -p cor-bench --bin iobench -- --smoke --json results/iobench/smoke.json

echo "==> corperf smoke (determinism + exact-I/O gate against results/corperf/baseline.json)"
cargo run -q --release -p cor-bench --bin corperf -- --smoke

echo "==> poolbench smoke (replacement-policy gate: scan-flood retention, miss-model error, results identity)"
cargo run -q --release -p cor-bench --bin poolbench -- --smoke --json results/poolbench/smoke.json

echo "All checks passed."
