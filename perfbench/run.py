#!/usr/bin/env python3
"""Builds and runs the simulator-speed benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload micro-detailed --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only check that the build is current. Build output goes
to stderr. The benchmark binary's stdout is passed through unchanged, so its
last line is the result JSON, and its exit status is returned. With
--trace 1 the spans are written to <build dir>/spans-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["micro-detailed", "kernels-detailed", "apps-sampled",
             "accuracy-streams"]
# A run measures at most 60 s and checks afterwards; anything longer hangs.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found; run from the "
             "repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(["cmake", "--build", build_dir, "--target", "borperf",
                          "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                         timeout=BUILD_TIMEOUT_S)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "borperf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--inject", default="",
                   help="sabotage one check (for the benchmark's own test)")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    build_dir = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
