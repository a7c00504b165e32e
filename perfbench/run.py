#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table2-serial|table2-jobs4|arith-scale \
        --seed N --seconds S --trace 0|1

The driver and the rmsyn libraries are compiled (Release, incrementally)
into .bench_build/perfbench. Build output goes to stderr; the last line of
stdout is the run's JSON result. Serial reference columns and traces are
kept in .bench_build/perfbench-state.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-state")
# Compiler temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
REWRITE_DB = os.path.join(ROOT, "data", "rewrite_db_k4.txt")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rmsyn sources next to perfbench/ (expected src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    build()
    if not os.path.isfile(REWRITE_DB):
        fail("missing " + REWRITE_DB)
    os.makedirs(STATE_DIR, exist_ok=True)
    env = dict(os.environ, RMSYN_REWRITE_DB=REWRITE_DB)
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + sys.argv[1:] + \
        ["--state-dir", STATE_DIR]
    sys.exit(subprocess.run(cmd, env=env, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
