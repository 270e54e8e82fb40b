#!/usr/bin/env python3
"""Build and run the E-morphic end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload epfl_emorphic --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) in Release mode
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs the benchmark binary. The binary's last stdout line is the JSON
result; build output goes to stderr. Exits non-zero when the sources are
missing, the build fails, or the run finds a wrong or unsteady result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_hash():
    """Digest of every source the benchmark builds from: stored QoR and
    counters are only compared between runs of identical code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "emorphic_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "flow", "pipeline.hpp")):
        print("perfbench: the E-morphic sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return 3

    cmd = [os.path.join(build_dir, "emorphic_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--state-dir", os.path.join(build_dir, "state"),
           "--source-hash", source_hash()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
