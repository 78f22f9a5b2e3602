#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The perfbench program and the engine
library are configured as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr. The program's stdout is passed through: its
last line is the result JSON.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seconds_arg(argv):
    for i, a in enumerate(argv[:-1]):
        if a == "--seconds":
            try:
                return float(argv[i + 1])
            except ValueError:
                return 10.0
    return 10.0


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    # perfbench measures for --seconds plus a few seconds of set-up
    # and reference checks; anything far beyond that is a hang.
    limit = 3 * seconds_arg(sys.argv) + 60
    try:
        done = subprocess.run([os.path.join(build_dir, "perfbench")] +
                              sys.argv[1:], cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %.0f s" % limit)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
