#!/usr/bin/env python3
"""Build segbench from this checkout's sources, then run it.

Usage, from the repository root:

    python3 bench/segbench/run.py --workload <bulk|share|office|churn|all> \
        --seed N [--seconds S] [--trace 0|1]

The first call configures and builds into .bench_build/segbench (a few
minutes); later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is segbench's JSON result. The exit
code is segbench's, or the build's when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "segbench")


def build():
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "segbench",
                  "-j", "4"])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, env=env).returncode
        if code != 0:
            return code
    return 0


def main():
    code = build()
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    env = dict(os.environ, SEGSHARE_BENCH_JSON_DIR=BUILD)
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "segbench")] + sys.argv[1:],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
