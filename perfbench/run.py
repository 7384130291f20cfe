#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 30 --trace 0

The library and the benchmark binary are built (Release, incremental) into
.bench_build/; build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Traced runs write their spans to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sim-paper", "offline-batch", "serve-closed")
BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))


def source_sha():
    """sha256 over the sources the binary is built from (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE)):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or "none" when it is not the top of a git
    repository (a parent directory's repository is not this code)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "none"
    top, sha = lines
    return sha if os.path.realpath(top) == os.path.realpath(".") else "none"


def build():
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.relpath(HERE), "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    spec_path = "BENCHMARK.json"
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1 or a.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--git-sha", git_sha(),
           "--source-sha", source_sha()]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    # The binary and BENCHMARK.json must name the same metrics.
    lines = proc.stdout.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    want = expected_metrics(a.trace)
    if got != want:
        print(f"metric set mismatch: missing {sorted(want - got)}, "
              f"unexpected {sorted(got - want)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
