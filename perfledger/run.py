#!/usr/bin/env python3
"""Builds the perfledger benchmark from source, then runs it.

Run from the repository root:

    python3 perfledger/run.py --workload halo_131k --seed 1 --seconds 15 --trace 0

Every argument is passed to the perf_ledger binary (see perfledger/README.md).
The build goes to .bench_build/perfledger under the current directory; its
output goes to stderr, so the last line of stdout stays the benchmark's JSON
result.  Exits non-zero, without a result, if the library sources or the
toolchain are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")
BUILD = os.path.join(".bench_build", "perfledger")
BINARY = os.path.join(BUILD, "perf_ledger")


def fail(message):
    print(f"perfledger: {message}", file=sys.stderr)
    return 2


def build():
    if not os.path.isfile(SRC):
        return fail(f"library sources not found ({SRC}); run from a full "
                    "checkout of the repository")
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perf_ledger",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return fail("build failed: " + " ".join(cmd))
    return 0


def main(argv):
    status = build()
    if status:
        return status
    sys.stdout.flush()
    return subprocess.run([BINARY] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
