#!/usr/bin/env bash
# The ten-pair protocol behind every performance or no-gain claim (the
# PR 13/15/16/17 sections of docs/benchmarks.md): run BENCHMARK.json's
# command on a parent commit and on the working tree, alternating which
# side goes first, and print medians, quartiles, pairs won and, for the
# exact counts, which way each moved per seed against the metric's
# `better` ("lower on every seed", "WORSE: higher on k of n seeds").
#
#   scripts/pairs.sh <parent-ref> [--workload W]... [--pairs 10] [--seconds 10] [--seed N] [--traced]
#
# The parent is exported (`git archive`, so nothing is registered in .git
# and a dirty tree cannot leak into it) to target/pairs/<sha>/ and built
# there into its own benchmark/target; the change side is this checkout.
# Pair i uses seed N + i on both sides (N is --seed, 0xC0FFEE by default;
# a held-out check passes a seed the sizing runs did not use and reads the
# same summary). Every run's result line is
# kept in target/pairs/runs.jsonl. Reads BENCHMARK.json; edits nothing under
# benchmark/. Needs python3 for the summary. All four workloads at the
# defaults take about 15 minutes.
#
# --traced adds, after the pairs, one `--trace 1` run per side per
# workload on seed N and prints the per-layer metrics side by side:
# where a saving sits. Each side's harness binary runs from its own
# directory under target/pairs/traced/, so its trace files and scratch
# stores land there; the result lines go to target/pairs/traced.jsonl.
# This adds about one minute per workload and side.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/pairs.sh <parent-ref> [--workload W]... [--pairs 10] [--seconds 10] [--seed N] [--traced]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_ref=$1
shift
workloads=()
pairs=10
seconds=10
seed0=$((0xC0FFEE))
traced=0
while [ $# -gt 0 ]; do
    case $1 in
    --traced) traced=1 && shift ;;
    --workload) workloads+=("${2:?--workload needs a name}") && shift 2 ;;
    --pairs) pairs=${2:?--pairs needs a count} && shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a number} && shift 2 ;;
    --seed)
        # Decimal or 0x-hex; bash arithmetic would read a leading 0 as octal.
        [[ ${2:-} =~ ^(0[xX][0-9a-fA-F]+|[1-9][0-9]*|0)$ ]] || usage
        seed0=$(($2)) && shift 2
        ;;
    *) usage ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

sha=$(git rev-parse --verify "$parent_ref^{commit}")
parent_dir=target/pairs/$sha
if [ ! -d "$parent_dir" ]; then
    mkdir -p "$parent_dir"
    git archive "$sha" | tar -x -C "$parent_dir"
fi
change_dir=$PWD
parent_dir=$change_dir/$parent_dir
runs=$change_dir/target/pairs/runs.jsonl
: >"$runs"

echo "==> building parent $sha and the working tree" >&2
for dir in "$parent_dir" "$change_dir"; do
    (cd "$dir" && CARGO_TARGET_DIR=benchmark/target cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
done

# One run: the last stdout line of benchmark/run.sh, tagged with its side.
run_side() {
    local side=$1 dir=$2 workload=$3 pair=$4 seed=$5 result
    result=$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>"$runs.stderr" | tail -n 1) || {
        cat "$runs.stderr" >&2
        exit 1
    }
    printf '{"workload": "%s", "pair": %d, "seed": %d, "side": "%s", "result": %s}\n' \
        "$workload" "$pair" "$seed" "$side" "$result" >>"$runs"
}

for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        echo "==> $workload pair $((i + 1))/$pairs (seed $seed)" >&2
        if ((i % 2 == 0)); then
            run_side parent "$parent_dir" "$workload" "$i" "$seed"
            run_side change "$change_dir" "$workload" "$i" "$seed"
        else
            run_side change "$change_dir" "$workload" "$i" "$seed"
            run_side parent "$parent_dir" "$workload" "$i" "$seed"
        fi
    done
done

python3 - "$runs" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
# Counts the program makes itself: they must repeat exactly per seed.
EXACT = ("io_per_query", "write_bytes_per_query", "store_pages")
runs = {}  # workload -> pair -> side -> result
for line in open(sys.argv[1]):
    r = json.loads(line)
    runs.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

def fmt(x):
    return f"{x:.4g}"

for workload, by_pair in runs.items():
    pairs = [p for p in by_pair.values() if "parent" in p and "change" in p]
    print(f"\n## {workload} ({len(pairs)} pairs)")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change/parent | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        a = [p["parent"]["metrics"][name]["value"] for p in pairs]
        b = [p["change"]["metrics"][name]["value"] for p in pairs]
        (am, a1, a3), (bm, b1, b3) = quartiles(a), quartiles(b)
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        lost = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        ratio = bm / am if am else float("nan")
        worse_by = (ratio - 1 if lower else 1 - ratio) if am else 0.0
        if name in EXACT:
            # Direction, read against `better`: a saving and a regression
            # must not print the same words.
            better_dir, worse_dir = ("lower", "higher") if lower else ("higher", "lower")
            if lost:
                verdict = f"WORSE: {worse_dir} on {lost} of {len(pairs)} seeds"
            elif won == len(pairs):
                verdict = f"{better_dir} on every seed"
            elif won:
                verdict = f"{better_dir} on {won} seeds, identical on the rest"
            else:
                verdict = "identical per seed"
        elif am and (a3 - a1) / am > bound:
            # Too wide to tell a median apart, unless the sides do not
            # overlap at all.
            spread = f"parent spread {fmt((a3 - a1) / am)} > bound {bound}"
            if (max(b) < min(a)) if lower else (min(b) > max(a)):
                verdict = f"every change run better ({spread})"
            else:
                verdict = f"unresolved ({spread})"
        elif worse_by > bound:
            verdict = f"WORSE by {fmt(worse_by)} > bound {bound}"
        elif won * 10 >= 9 * len(pairs) and abs(bm - am) > a3 - a1:
            verdict = "better"
        else:
            verdict = "within bound"
        print(f"| {name} ({m['unit']}) | {fmt(am)} [{fmt(a1)}, {fmt(a3)}] | {fmt(bm)} [{fmt(b1)}, {fmt(b3)}] "
              f"| {fmt(ratio)} | {won}/{len(pairs)} (lost {lost}) | {verdict} |")
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        wrong = sum(not p[side]["correct"] for p in pairs)
        print(f"{side}: {failed} failed of {attempted} attempted, {wrong} runs with a wrong answer")
EOF

((traced)) || exit 0
# One traced run per side and workload, each from its own directory (the
# harness writes its trace and scratch files under ./benchmark/out).
traced_runs=$change_dir/target/pairs/traced.jsonl
: >"$traced_runs"
seed=$seed0
for workload in "${workloads[@]}"; do
    for side in parent change; do
        echo "==> $workload traced, $side (seed $seed)" >&2
        dir=$parent_dir
        [ "$side" = change ] && dir=$change_dir
        work=$change_dir/target/pairs/traced/$side
        mkdir -p "$work"
        result=$(cd "$work" && "$dir/benchmark/target/release/cor-benchmark" --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace 1 2>"$runs.stderr" | tail -n 1) || {
            cat "$runs.stderr" >&2
            exit 1
        }
        printf '{"workload": "%s", "side": "%s", "result": %s}\n' \
            "$workload" "$side" "$result" >>"$traced_runs"
    done
done

python3 - "$traced_runs" "$seed" <<'EOF'
import json, sys

bench = json.load(open("BENCHMARK.json"))
runs = {}  # workload -> side -> result
for line in open(sys.argv[1]):
    r = json.loads(line)
    runs.setdefault(r["workload"], {})[r["side"]] = r["result"]

def fmt(x):
    return f"{x:.4g}"

for workload, sides in runs.items():
    print(f"\n## {workload}, traced (seed 0x{int(sys.argv[2]):X}, one run per side)")
    print("| layer metric | parent | change | change/parent |")
    print("|---|---|---|---|")
    for m in bench["per_layer"]:
        name = m["name"]
        a, b = (sides[s]["metrics"][name]["value"] for s in ("parent", "change"))
        ratio = fmt(b / a) if a else "-"
        print(f"| {name} ({m['unit']}) | {fmt(a)} | {fmt(b)} | {ratio} |")
    for side in ("parent", "change"):
        r = sides[side]
        print(f"{side}: {r['failed']} failed of {r['attempted']} attempted, correct: {r['correct']}")
EOF
