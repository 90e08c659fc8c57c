#!/usr/bin/env python3
"""Builds the GEMS end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bi_mix --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, and is
reused by later runs. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. `--self-test` builds and runs the
helper unit tests instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        # Build logs go to stderr so stdout stays the benchmark's own.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    if argv[:1] == ["--self-test"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--work-dir", os.path.join(ROOT, ".bench_work"),
        "--digests", os.path.join(HERE, "digests.txt"),
    ] + argv
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
