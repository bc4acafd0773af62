#!/usr/bin/env python3
"""Builds and runs the end-to-end delivered-message benchmark.

    python3 perfbench/run.py --workload real-steady --seed 1 --seconds 30 --trace 0

Run from the repository root. Each call (re)builds perfbench/ together with
the library sources under src/ into $CARGO_TARGET_DIR, or .bench_build when
that is unset; after the first build this is an incremental no-op. Build
output goes to stderr. e2e_bench's stdout, whose last line is the result
JSON, passes through unchanged, and so does its exit code.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "environment.hpp")):
        sys.exit("perfbench: library sources not found under src/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
