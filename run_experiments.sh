#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation plus all
# ablations. See EXPERIMENTS.md for the paper-vs-measured record; the
# performance claims are measured by crates/tbench (README "Performance").
set -euo pipefail
cd "$(dirname "$0")"

BINARIES=(
  table1_overall
  fig10_news_ctr
  fig11_news_reads
  fig13_yixun_price
  fig14_yixun_purchase
  ablation_pruning
  ablation_run_merge
  ablation_window
  ablation_sparsity
  ablation_linked_time
)

for bin in "${BINARIES[@]}"; do
  echo
  echo "########## $bin ##########"
  cargo run -p bench --release --bin "$bin"
done
