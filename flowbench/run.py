#!/usr/bin/env python3
"""Builds and runs the flow benchmark from the root of a source checkout.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (flowbench/src) and the library layers it uses are
compiled from source into .bench_build/flowbench (or $CARGO_TARGET_DIR)
on first use; later runs only rebuild what changed. The program's output
is passed through: its last stdout line is the JSON result, and its exit
code is this script's exit code.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "mcretime", "mc_retime.h")):
        sys.exit("flowbench: library sources (src/) not found next to flowbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "flowbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--jobs", type=int, default=2,
                        help="windowed-retiming workers (results do not depend on it)")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "flowbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"flowbench: build failed: {error}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--jobs", str(args.jobs),
           "--work-dir", os.path.join(build_root, "work")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
