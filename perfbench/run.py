#!/usr/bin/env python3
"""Runs one workload of the GeckoFTL repo benchmark.

Builds perfbench/ (the library sources under src/ plus the geckobench
program) with CMake in Release mode into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then runs

    geckobench --workload NAME --seed N --seconds S --trace 0|1

and passes its standard output through; the last line is the JSON result.
Build output goes to standard error. Any other arguments (--tiny,
--corrupt-shadow) are handed to geckobench unchanged. With --trace 1 the
traced repetition's spans are written to <build dir>/trace-<workload>.tsv.

Exits non-zero, without a result, if the build fails or geckobench fails
or takes longer than RUN_TIMEOUT_S.

Usage, from the repository root:
  python3 perfbench/run.py --workload read_miss --seed 1 --seconds 25 --trace 0
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", source_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--parallel", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "geckobench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace] + extra
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.tsv" % args.workload)]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: geckobench timed out", file=sys.stderr)
        return 3
    if code != 0:
        print("perfbench: geckobench failed with exit code %d "
              "(workload %s, seed %s)" % (code, args.workload, args.seed),
              file=sys.stderr)
        return code if code > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
