#!/bin/sh
# Run every workload untraced (end-to-end metrics) and traced (per-layer
# metrics) with one seed, from the root of a checkout:
#     sh perfbench/all.sh [SEED] [SECONDS]
set -e
seed=${1:-1}
seconds=${2:-42}
for workload in enum-sweep walk-1_11 serve-mixed; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
