#!/usr/bin/env bash
# Full local gate: formatting, lints, rustdoc with warnings denied
# (broken or private intra-doc links fail), the whole test suite, the frozen
# benchmark harness's own build and tests (benchmark/ is outside the
# workspace, so this is what fails when the engine drops a name the
# harness uses; --locked keeps benchmark/Cargo.lock as committed, as it
# keeps the root Cargo.lock for clippy, doc and test), then
# one gate per question: explain (phase attribution and cost model), the
# replay of the committed explain capture (did any query's I/O move),
# figs.sh (the figure fixed point, scaled and paper-scale; its Ablation 3
# runs Figs 5 and 7 under LRU and SIEVE) and crashtest (raw and
# --logical). The test suite carries the exact-I/O pins no figure covers
# (tests/strategy_equivalence.rs, e.g. the two-shard pool under both
# policies) and the observability invariants (metrics reports for every
# strategy, the phase ledger against the pool's I/O counts). CI runs
# exactly this script; run it before pushing. It takes about 4 minutes
# warm on a 2-vCPU Xeon, most of it figs.sh.
#
# The gate leaves the tree as it found it: smoke legs write their
# timing-bearing reports under target/check/ (CI uploads them from
# there), and the last step fails if `git status --porcelain` changed.
#
# Not part of this gate (about 15 minutes, and timing needs a quiet box):
# `scripts/pairs.sh <parent-ref>` runs the ten alternating parent/change
# pairs of benchmark/run.sh that every performance or no-gain claim rests
# on, and prints the table docs/benchmarks.md records.
set -euo pipefail
cd "$(dirname "$0")/.."
tree_before=$(git status --porcelain)
out=target/check

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

echo "==> cargo test"
cargo test --locked --workspace -q

echo "==> benchmark harness build and tests (its own lockfile, left unchanged)"
CARGO_TARGET_DIR=target/benchmark cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> explain smoke (phase-attribution + cost-model gate)"
cargo run -q -p cor-bench --bin explain -- --smoke --jsonl $out/explain.jsonl

echo "==> explain replay of the committed capture (I/O regression gate)"
cargo run -q -p cor-bench --bin explain -- --replay results/explain/explain.jsonl

echo "==> figs (figure fixed point: fig3/4/5/7, smart, multilevel, numchildrel, ablation, matrix, jhin88, insideout and the paper-scale fig3/4/5 regenerate byte-identically)"
scripts/figs.sh

echo "==> crashtest smoke (durability gate: crash, recover, verify vs oracle)"
cargo run -q --release -p cor-bench --bin crashtest -- --smoke

echo "==> crashtest --logical smoke (lifecycle gate: crash, reopen via catalog, verify answers; BFS leg crashes under a live temporary)"
cargo run -q --release -p cor-bench --bin crashtest -- --logical --smoke

echo "==> tree unchanged (git status --porcelain before vs after)"
if [[ "$(git status --porcelain)" != "$tree_before" ]]; then
    echo "check.sh changed the working tree:" >&2
    diff <(echo "$tree_before") <(git status --porcelain) >&2 || true
    exit 1
fi

echo "All checks passed."
