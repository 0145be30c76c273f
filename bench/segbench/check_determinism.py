#!/usr/bin/env python3
"""Determinism check for segbench (registered as a ctest in this package).

Usage: check_determinism.py <segbench binary> <scratch dir>

Runs the single-client workloads `share` and `churn` in smoke mode
(SEGSHARE_BENCH_SMOKE=1: small namespaces, fixed step counts) twice with
one seed and once with another. Every exact counter in the report
(counts.*: store ops and bytes, wire bytes, SGX transitions, storage_x,
the op-sequence hash) must repeat under the same seed, and the op
sequence must change with the seed.
"""
import json
import os
import subprocess
import sys


def run(binary, workdir, workload, seed, tag):
    out_dir = os.path.join(workdir, f"{workload}-{tag}")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, SEGSHARE_BENCH_SMOKE="1",
               SEGSHARE_BENCH_JSON_DIR=out_dir)
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {workload} seed {seed} exited {proc.returncode}\n"
                 f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    with open(os.path.join(out_dir, "BENCH_segbench.json")) as handle:
        results = json.load(handle)["results"]
    prefix = f"{workload}.counts."
    return {r["name"][len(prefix):]: r["value"] for r in results
            if r["name"].startswith(prefix)}


def main():
    binary, workdir = sys.argv[1], sys.argv[2]
    failures = []
    for workload in ("share", "churn"):
        first = run(binary, workdir, workload, 7, "a")
        second = run(binary, workdir, workload, 7, "b")
        other = run(binary, workdir, workload, 8, "c")
        if not first:
            failures.append(f"{workload}: report has no counts")
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                failures.append(f"{workload}: counts.{name} "
                                f"{first.get(name)} != {second.get(name)}")
        if first.get("sequence_hash") == other.get("sequence_hash"):
            failures.append(f"{workload}: seeds 7 and 8 ran the same ops")
        print(f"{workload}: {len(first)} counters repeat exactly")
    if failures:
        print("\n".join(failures))
        sys.exit(f"FAIL: {len(failures)} determinism violations")
    print("OK")


if __name__ == "__main__":
    main()
