#!/usr/bin/env bash
# Build the harness from source and run it. All arguments go to the harness:
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N]                                      all four workloads, untraced then traced
#   benchmark/run.sh --agree                                         two sets on one seed plus one on another
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Relative, like the driver's `.bench_build`: it resolves against the
# checkout root, which is where cargo is started from.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Not --locked: a later change may add a dependency to a crate under
# ../crates, and this directory's lock file must be free to follow it.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cor-benchmark" "$@"
