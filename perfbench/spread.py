#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's median,
quartiles and spread (interquartile distance / median), the figures the
bounds in BENCHMARK.json are judged against.

    python3 perfbench/spread.py --workload service_mixed --seeds 1-10 \
        [--trace 0] [--seconds 20]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())),
            file=sys.stderr)

    print(f"{'metric':30} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:30} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
