#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/ (which compiles
the simulator library from src/) in Release mode under the directory
named by CARGO_TARGET_DIR, default .bench_build, runs the derivation
self-test, then runs the benchmark binary. Its last line of standard
output is the result JSON; build output and diagnostics go to standard
error. Exits non-zero without printing a result when the tree cannot be
built.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns the directory of binaries."""
    out = build_dir / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", JOBS, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)
    return out


def main():
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            log(f"no {needed} in {ROOT}: not a simulator source tree")
            return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        out = build(build_dir)
        subprocess.run([str(out / "perfbench_selftest")], check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build or self-test failed: {e}")
        return 1
    return subprocess.run([str(out / "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
