#!/usr/bin/env bash
# Runs the four workloads untraced, then traced, for one seed, merges the
# result lines into <target>/tbench/results-<seed>.json and pretty-prints
# it. Run from the repo root:
#
#   crates/tbench/run.sh [seed] [untraced repeats]
#
# Two result files compare with `tbench --compare a.json b.json`.
set -euo pipefail

seed="${1:-1}"
repeats="${2:-1}"
target="${CARGO_TARGET_DIR:-target}"
out="$target/tbench/results-$seed.json"
workloads=(ingest_broad fresh_hot serve_mixed cluster_edge)

cargo build --release --offline --quiet --manifest-path crates/tbench/Cargo.toml
bin="$target/release/tbench"
"$bin" --validate >&2
mkdir -p "$target/tbench"

runs=()
run() { # workload trace
    local line
    line="$("$bin" --workload "$1" --seed "$seed" --seconds 10 --trace "$2" | tail -n 1)"
    runs+=("{\"workload\": \"$1\", \"trace\": $2, \"result\": $line}")
}
for w in "${workloads[@]}"; do
    for _ in $(seq "$repeats"); do
        echo "tbench: $w (untraced)" >&2
        run "$w" 0
    done
done
for w in "${workloads[@]}"; do
    echo "tbench: $w (traced)" >&2
    run "$w" 1
done

{
    printf '{"seed": %s, "runs": [\n' "$seed"
    for i in "${!runs[@]}"; do
        if [ "$i" -gt 0 ]; then printf ',\n'; fi
        printf '%s' "${runs[$i]}"
    done
    printf '\n]}\n'
} >"$out"
python3 -m json.tool "$out"
echo "tbench: wrote $out" >&2
