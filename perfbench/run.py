#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds perfbench_serve from this source tree (CMake + Ninja, Release) into
the build directory, runs one workload and passes its output through. The
last line of standard output is the JSON result:

    {"correct": true, "attempted": 123, "failed": 0, "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload wire_sharded --seed 1 \
        --seconds 10 --trace 0

Workloads, metrics and tolerances are described in perfbench/README.md and
BENCHMARK.json. Exits non-zero, without a result line, when the program
cannot be built (for example outside an rtmobile source tree).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_sharded", "local_wide_int8", "local_repeat")
# One run must end within 180 s: the binary's own hang guard fires after
# 15 s without progress, so this is only the last resort.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-G", "Ninja",
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out_dir, "build.ninja")):
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench_serve",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench_serve")


def source_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_commit()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
