#!/usr/bin/env python3
"""Builds the benchmark from the sources beside it and runs one workload.

    python3 xdbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 xdbench/run.py --self-test

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/xdbench
(default .bench_build/xdbench); fixtures and trace files go to .bench_out/.
The last stdout line is the result object; the exit code is the
benchmark's (non-zero when an oracle failed or the build could not run).
--self-test builds and runs the self-test binary, then checks that
BENCHMARK.json names exactly the metrics the binary prints.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(targets):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "xdbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j4", "--target"] + targets,
        ]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("xdbench: build failed (%s)\n" % log_path)
                sys.exit(3)
    return build_dir


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree, not a clone
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def self_test():
    build_dir = build(["xdbench", "xdbench_selftest"])
    rc = subprocess.call([os.path.join(build_dir, "xdbench_selftest")])
    listed = subprocess.run([os.path.join(build_dir, "xdbench"),
                             "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    binary = {}
    for line in listed.splitlines():
        kind, name, unit, better = line.split()
        binary[(kind, name)] = (unit, better)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            declared[(kind, m["name"])] = (m["unit"], m["better"])
    mismatches = sorted(set(binary.items()) ^ set(declared.items()))
    for item in mismatches:
        print("FAIL: BENCHMARK.json and xdbench disagree on %s" % (item,))
    if not mismatches:
        print("BENCHMARK.json matches the %d metrics xdbench prints"
              % len(binary))
    return 1 if rc or mismatches else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    build_dir = build(["xdbench"])
    cmd = [os.path.join(build_dir, "xdbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--git-rev", git_rev()]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
