#!/bin/sh
# Regenerates the committed bench documents:
#   BENCH_paper.json / BENCH_window.json / BENCH_cslow.json
#                                        full-suite perf trajectory (repo root;
#                                        the paper suite is the same in both
#                                        modes; the window report's headline
#                                        entry runs a deadline-capped
#                                        monolithic solve and takes a few
#                                        minutes)
#   bench/baseline/BENCH_*.json          quick-suite baseline for CI's
#                                        bench-smoke gate
#
# Run from the repo root on a quiet machine. The CI gates compare delays,
# FF/LUT counts, periods, work counters and speedup *ratios*, never
# wall-clock, so the baseline does not need to come from CI hardware — but
# it must come from the default (RelWithDebInfo) build, matching what
# bench-smoke configures.
#
#   sh tools/update_bench_baseline.sh [build-dir]
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target mcrt_cli

echo "== full suite (perf trajectory documents) =="
"$build_dir/tools/mcrt" bench --out-dir "$repo_root"

echo "== quick suite (CI regression baseline) =="
mkdir -p "$repo_root/bench/baseline"
"$build_dir/tools/mcrt" bench --quick --out-dir "$repo_root/bench/baseline"

echo "Updated:"
for doc in BENCH_paper.json BENCH_window.json BENCH_cslow.json; do
  echo "  $repo_root/$doc"
  echo "  $repo_root/bench/baseline/$doc"
done
echo "Review the delays, counts, periods, counters and speedup columns, then"
echo "commit all six files."
