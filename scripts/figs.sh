#!/usr/bin/env bash
# The figure fixed point: regenerate results/fig{3,4,5,7}.{txt,csv},
# results/matrix.csv,
# results/{smart,multilevel,numchildrel,ablation,matrix,jhin88,insideout}.txt
# and the paper-scale results/fig{3,4,5}_full.txt and fig4_full.csv
# with the exact command lines below and fail if any of them differs from what is
# committed. A change that is not meant to move the paper's I/O counts must
# leave this green; one that is meant to moves the files in the same commit.
#
# Each .txt starts with a `# figs.sh:` line recording its command, then holds
# the binary's stdout and stderr (the CSV notice is on stderr). A `--full` run
# writes results/<name>_full.txt.
#
# Cost, warm release build on a 2-vCPU Xeon: about 160 s in all, of which the
# three paper-scale runs take about 90 s (fig3 13 s, fig4 71 s, fig5 6 s).
set -euo pipefail
cd "$(dirname "$0")/.."

fig() {
    local name=$1
    shift
    local out=results/$name.txt
    [[ " $* " == *" --full "* ]] && out=results/${name}_full.txt
    echo "==> $name $*"
    {
        echo "# figs.sh: $name $*"
        cargo run --release -q -p cor-bench --bin "$name" -- "$@" 2>&1
    } >"$out"
}

fig fig3 --scale 0.4 --seq 60 --csv results/fig3.csv
fig fig4 --scale 0.25 --seq 100 --faces --csv results/fig4.csv
fig fig5 --scale 0.4 --csv results/fig5.csv
fig fig7 --scale 0.4 --csv results/fig7.csv
fig smart --scale 0.25
fig multilevel --scale 0.25
fig numchildrel --scale 0.25
fig ablation --scale 0.25
fig matrix --scale 0.2 --csv results/matrix.csv
fig jhin88 --scale 0.2
fig insideout --scale 0.2
fig fig3 --full --seq 100
fig fig4 --full --seq 120 --faces --csv results/fig4_full.csv
fig fig5 --full

git diff --exit-code --stat -- results/fig{3,4,5,7}.{txt,csv} results/matrix.csv \
    results/{smart,multilevel,numchildrel,ablation,matrix,jhin88,insideout}.txt \
    results/fig{3,4,5}_full.txt results/fig4_full.csv
echo "figures match the committed results"
