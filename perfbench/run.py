#!/usr/bin/env python3
"""Build and run the MCAM end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mcam_control --seed 1 --seconds 10 --trace 0

Workloads: mcam_control, mcam_catalog (see perfbench/NOTES.md).
The first call configures and builds the library and the benchmark (Release)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls rebuild only what changed. The benchmark's self-test runs before every
measurement. Build output and progress go to stderr; the last line on stdout
is the result object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mcam_control", "mcam_catalog")


def run_quiet(cmd):
    """Run a build step with its output on stderr; True when it succeeded."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench", "perfbench_selftest"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "mcam", "testbed.hpp")):
        print("perfbench: the MCAM sources (src/) are missing next to "
              "perfbench/", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run_quiet([os.path.join(build_dir, "perfbench_selftest")]):
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    # The catalog's traced run meshes two nodes over Unix-domain sockets,
    # whose paths are limited to 107 bytes; keep them relative.
    sock_dir = os.path.relpath(os.path.join(build_dir, "sock"))
    if len(sock_dir) > 80:
        sock_dir = os.path.join(".bench_build", "sock")
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--sock-dir", sock_dir])


if __name__ == "__main__":
    sys.exit(main())
