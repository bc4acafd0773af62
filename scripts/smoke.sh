#!/usr/bin/env bash
# Bench and example smoke: runs every bench binary in <build-dir>/bench at
# reduced scale (P2PANON_BENCH_SCALE=0.05), then the quick examples, with
# stdout discarded. Any nonzero exit fails the smoke. scripts/check.sh runs
# it on build/; CI's sanitizers job runs it on its ASan/UBSan tree.
#
# Usage: bash scripts/smoke.sh <build-dir>
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:?usage: scripts/smoke.sh <build-dir>}"

echo "== quick bench smoke (P2PANON_BENCH_SCALE=0.05) =="
export P2PANON_BENCH_SCALE=0.05
for bench in "$build"/bench/*; do
  if [ -f "$bench" ] && [ -x "$bench" ]; then
    echo "--- $bench"
    case "$bench" in
      # Statistical churn benches get tiny configs for the smoke run.
      *table*|*fig5*) "$bench" --nodes 128 >/dev/null ;;
      *ablate_failure*) "$bench" --nodes 128 --seeds 1 >/dev/null ;;
      *sec_*) "$bench" --nodes 128 >/dev/null ;;
      # The scale probe's default sweep reaches N=16k (~6.5 GB); smoke small.
      *scale_probe*) "$bench" --sizes 256,512 >/dev/null ;;
      # Plain "0.01" (no unit suffix) parses on both old and new
      # google-benchmark; the "0.01s" form is rejected by older releases.
      *micro*) "$bench" --benchmark_min_time=0.01 >/dev/null ;;
      *) "$bench" >/dev/null ;;
    esac
  fi
done

echo "== examples =="
"$build"/examples/quickstart >/dev/null
"$build"/examples/allocation_planner >/dev/null
