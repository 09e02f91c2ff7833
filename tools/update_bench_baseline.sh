#!/bin/sh
# Regenerates the committed bench documents:
#   BENCH_paper.json                     full-suite results document (repo
#                                        root; the paper suite is the same
#                                        in both modes)
#   bench/baseline/BENCH_paper.json      quick-suite baseline for CI's
#                                        bench-smoke gate
#
# Run from the repo root on a quiet machine. The CI gate compares delays,
# FF/LUT counts and relocation attempts, never wall-clock, so the baseline
# does not need to come from CI hardware — but it must come from the
# default (RelWithDebInfo) build, matching what bench-smoke configures.
#
#   sh tools/update_bench_baseline.sh [build-dir]
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target mcrt_cli

echo "== full suite (results document) =="
"$build_dir/tools/mcrt" bench --out-dir "$repo_root"

echo "== quick suite (CI regression baseline) =="
mkdir -p "$repo_root/bench/baseline"
"$build_dir/tools/mcrt" bench --quick --out-dir "$repo_root/bench/baseline"

echo "Updated:"
echo "  $repo_root/BENCH_paper.json"
echo "  $repo_root/bench/baseline/BENCH_paper.json"
echo "Review the delays, counts and attempts, then commit both files."
