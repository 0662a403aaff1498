#!/usr/bin/env bash
# Regenerates every table and figure of the paper at the canonical
# reproduction scale (see EXPERIMENTS.md). Writes console output to
# results/*.log and machine-readable data to results/*.json.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

cargo build --release --bin gcnt
export PATH="$PWD/target/release:$PATH"

gcnt table1   --nodes 20000                          | tee results/table1.log
gcnt fig8     --nodes 3000 --epochs 300 --eval-every 25 | tee results/fig8.log
gcnt fig9     --nodes 3000 --epochs 100              | tee results/fig9.log
gcnt table3   --nodes 3000 --epochs 100              | tee results/table3.log
gcnt fig10    --max-nodes 1000000                    | tee results/fig10.log
gcnt table2   --nodes 6000 --epochs 300              | tee results/table2.log
gcnt ablation --nodes 6000 --epochs 300              | tee results/ablation.log

echo "all experiments complete"
