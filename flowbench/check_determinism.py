#!/usr/bin/env python3
"""Checks that the benchmark's quality and count metrics repeat exactly.

    python3 flowbench/check_determinism.py [--seed N] [--workload NAME ...]

Each workload runs untraced and traced, once with one windowed-retiming
worker and once with four, with --seconds 1 (one untraced pass, and one
traced pass when traced). The quality metrics
(period_sum, ff_sum, lut_sum, ok_frac) and every per-layer count and ratio
must agree exactly between the two; timings are ignored. The default seed,
1000, is held out: no workload was tuned on it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_table2", "scaled_minarea", "gate_minperiod", "large_windowed"]
QUALITY = ["period_sum", "ff_sum", "lut_sum", "ok_frac"]


def run(workload, seed, trace, jobs):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--jobs", str(jobs)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} jobs={jobs} failed:\n{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name in QUALITY or m["unit"] in ("count", "ratio")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        for trace in (0, 1):
            one, four = run(workload, args.seed, trace, 1), run(workload, args.seed, trace, 4)
            diff = sorted(k for k in one if one[k] != four.get(k))
            print(f"{workload} trace={trace}: {len(one)} metrics, "
                  + ("identical" if not diff else "DIFFER: " + ", ".join(diff)))
            ok = ok and not diff
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
