#!/usr/bin/env python3
"""Pins the CLI argv contract of every bench/tool binary.

Each binary must reject an unknown flag up front -- non-zero exit and a
usage line -- instead of silently ignoring it and burning minutes of bench
time (the historical failure mode: `bench_expander --jsn out.json` ran the
whole suite and wrote nothing).  The binaries are derived from the sources
CMakeLists.txt builds them from, `bench/*.cpp` and `tools/*.cpp`, so a
deleted or renamed program leaves no stale name behind.  Sources that
include `benchmark/benchmark.h` (bench_kernel) are exempt, the same rule
CMakeLists.txt applies: google-benchmark owns their flag parsing.

Usage: check_argv.py BUILD_DIR
"""

import glob
import os
import subprocess
import sys

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def strict_argv_binaries():
    """Binary names under the strict-argv contract, one per source file."""
    names = []
    for pattern in ("bench/*.cpp", "tools/*.cpp"):
        for src in sorted(glob.glob(os.path.join(SOURCE_ROOT, pattern))):
            with open(src, "rb") as f:
                # CMakeLists.txt reads the first 4096 bytes for the same test.
                if b"benchmark/benchmark.h" in f.read(4096):
                    continue
            names.append(os.path.splitext(os.path.basename(src))[0])
    return names


BAD_FLAG = "--definitely-not-a-flag"


def probe(path, args):
    proc = subprocess.run(
        [path] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=60,
    )
    return proc.returncode, proc.stdout.decode(errors="replace")


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} BUILD_DIR", file=sys.stderr)
        return 2
    build_dir = sys.argv[1]
    checked = 0
    failures = []
    # Missing binaries are skipped (the bench group can be configured off)
    # but at least one must exist.
    for name in strict_argv_binaries():
        path = os.path.join(build_dir, name)
        if not os.path.exists(path):
            print(f"skip {name}: not built")
            continue
        checked += 1
        code, out = probe(path, [BAD_FLAG])
        if code == 0:
            failures.append(f"{name}: accepted {BAD_FLAG} (exit 0)")
        elif "usage" not in out.lower():
            failures.append(f"{name}: rejected {BAD_FLAG} without a usage line")
        else:
            print(f"ok   {name}: rejects unknown flags (exit {code})")
    # The converter also needs its operands: no args is an error, not a hang.
    conv = os.path.join(build_dir, "edges_to_binary")
    if os.path.exists(conv):
        code, out = probe(conv, [])
        if code == 0 or "usage" not in out.lower():
            failures.append("edges_to_binary: missing operands not rejected")
        else:
            print(f"ok   edges_to_binary: requires operands (exit {code})")
    if checked == 0:
        failures.append(f"no checked binaries found in {build_dir}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
