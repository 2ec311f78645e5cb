#!/bin/sh
# Run the four workloads one after another; stops with a non-zero exit code
# at the first workload that reports a wrong answer.
#   sh perfbench/all.sh [seed] [seconds] [trace]
set -e
for w in walk decide equiv census; do
    python3 perfbench/run.py --workload "$w" --seed "${1:-7}" \
        --seconds "${2:-25}" --trace "${3:-0}"
done
