#!/usr/bin/env python3
"""Builds the dpmerge benchmark harness from source and runs one workload.

Run from the root of a dpmerge checkout:

    python3 perfbench/run.py --workload paper_flows --seed 1 --seconds 10 --trace 0

The harness (perfbench/harness.cpp) is configured and built with CMake under
$CARGO_TARGET_DIR (default .bench_build) the first time, and brought up to
date on every later run. The harness's own output is passed through; its
last stdout line is the result JSON. The exit status is non-zero, with no
result printed, when the sources are missing or the build or the harness
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_flows", "netlist_1k", "cluster_100k")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dpmerge_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dpmerge_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", default="0x5ca1e")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--scale-nodes", type=int, default=0,
                    help="shrink the scale workloads (smoke testing)")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="flip one gate per netlist before verification")
    args = ap.parse_args()

    designs = os.path.join(ROOT, "examples", "designs")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(designs):
        log(f"dpmerge sources not found under {ROOT}")
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.scale_nodes:
        cmd += ["--scale-nodes", str(args.scale_nodes)]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
