#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads burst-1k large-4m --seeds 10

Runs each workload once per seed (seeds 1..N, each in a fresh process,
tracing off, run_seconds from BENCHMARK.json) and prints, per metric, the
median, the interquartile range as a share of the median (quartiles from
statistics.quantiles(values, n=4)) and that share over the metric's bound.
A share below a third of the bound is steady. Raw values are saved to
.bench_build/results/spread-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for wl in args.workloads:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if not lines:
                print("%s seed %d: exit %d, no result" % (wl, seed, out.returncode))
                steady = False
                continue
            res = json.loads(lines[-1])
            if out.returncode != 0 or not res["correct"]:
                print("%s seed %d: exit %d, correct=%s" % (wl, seed, out.returncode, res["correct"]))
                steady = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        os.makedirs(os.path.join(ROOT, ".bench_build", "results"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_build", "results", "spread-%s.json" % wl), "w") as fh:
            json.dump(values, fh, indent=1)
        print("%s (%d seeds)" % (wl, args.seeds))
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            flag = "" if share < bounds[m] / 3 else "  <-- above bound/3"
            if m != "setup_s" and share >= bounds[m] / 3:
                steady = False
            print("  %-22s median %-12.6g iqr/median %.4f  (bound %.2f)%s"
                  % (m, med, share, bounds[m], flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
