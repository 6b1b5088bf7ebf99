#!/usr/bin/env bash
# Per-push correctness pass over the generator benchmark (perfbench/).
#
# Runs every perfbench workload briefly and fails unless each run's output
# digest matched its single-thread layer replay ("correct": true) and no run
# failed ("failed": 0). That covers both runtimes' delivery loop: the
# in-process workloads go through stream_generate, ranks3_csv through
# run_worker/run_merge. It judges correctness only; timing comparisons need
# interleaved A/B runs on one host (perfbench/compare.py).
#
# Usage: scripts/perfbench_smoke.sh   (5 s per workload)
# perfbench builds its own tree under $CARGO_TARGET_DIR (default .bench_build/).
set -euo pipefail

cd "$(dirname "$0")/.."
status=0
for wl in steady_cpgt storm_spatial ranks3_csv; do
  echo "== perfbench $wl (5 s)"
  out="$(python3 perfbench/run.py --workload "$wl" --seed 1 --seconds 5)"
  last="$(printf '%s\n' "$out" | tail -n 1)"
  if printf '%s' "$last" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)'
  then
    echo "   correct, no failed runs"
  else
    echo "perfbench_smoke: $wl did not pass: $last" >&2
    status=1
  fi
done
exit "$status"
