#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/steadiness.py --workload serve-mixed [--workload ...]
        [--seeds 1..10] [--seconds 20] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed (from the checkout root), then
prints, per workload and metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.
host.probe_ms and the traced overhead are printed beside each run when
they are available. --out also writes every run's result and detail as
JSON, which is what the first-numbers table in README.md was made from.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("steadiness: %s seed %d failed" % (workload, seed))
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound")
                  for m in json.load(f)["end_to_end"]}
    report = {}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, detail = run_once(workload, seed, args.seconds,
                                      args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print("%s seed %d: correct=%s host.probe_ms=%.2f %s" % (
                workload, seed, result["correct"], detail["host_probe_ms"],
                " ".join("%s=%.6g" % (k, v["value"])
                         for k, v in result["metrics"].items())),
                flush=True)
        report[workload] = runs
        print("\n%s (%d runs)" % (workload, len(runs)))
        print("  %-36s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = metrics.quartiles(values)
            bound = bounds.get(name)
            print("  %-36s %12.6g %12.6g %12.6g %8.4f %6s" % (
                name, q1, q2, q3, metrics.spread(values),
                "-" if bound is None else "%.3f" % bound))
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
