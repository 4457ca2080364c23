#!/usr/bin/env python3
"""Smoke test of the benchmark harness; run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that the result line carries exactly the declared end-to-end
(resp. per-layer) metrics, each with its declared unit and a finite value.
Then it injects a verification mismatch (one flipped gate per netlist) and
checks that the failure count and `fail_rate` rise. Exits 0 when every
check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_NODES = "400"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seconds", "0.5", "--trace", str(trace),
           "--scale-nodes", TINY_NODES, *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                             f"{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_result(result, declared, label):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted = {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        errors.append(f"{label}: failed = {result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        errors.append(f"{label}: missing {missing}, undeclared {extra}")
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{label}: {name} unit {m.get('unit')!r}, "
                          f"declared {want[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{label}: {name} value {v!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        plain = run(name, 0)
        errors += check_result(plain, bench["end_to_end"], f"{name} trace 0")
        if not plain["correct"]:
            errors.append(f"{name}: correct is false without injection")
        traced = run(name, 1)
        errors += check_result(traced, bench["per_layer"], f"{name} trace 1")
        print(f"{name}: {plain['failed']}/{plain['attempted']} cells failed, "
              f"{len(plain['metrics'])} + {len(traced['metrics'])} metrics",
              flush=True)
        if name == "cluster_100k":
            continue  # no netlist to corrupt
        broken = run(name, 0, "--inject-mismatch")
        if broken["failed"] * plain["attempted"] <= \
                plain["failed"] * broken["attempted"]:
            errors.append(f"{name}: injected mismatch did not raise the "
                          f"failure count ({broken['failed']}/"
                          f"{broken['attempted']})")
        if broken["correct"]:
            errors.append(f"{name}: injected mismatch left correct true")
        broken_traced = run(name, 1, "--inject-mismatch")
        rate = broken_traced["metrics"]["fail_rate"]["value"]
        if rate <= traced["metrics"]["fail_rate"]["value"]:
            errors.append(f"{name}: injected mismatch left fail_rate at {rate}")
    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
