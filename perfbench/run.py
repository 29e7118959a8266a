#!/usr/bin/env python3
"""The repository benchmark: build it, run one workload, report.

    python3 perfbench/run.py --workload <profile-cli|sweep-synth|serve-mixed>
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. perfbench-workloads (perfbench/src,
built with the program's sources by perfbench/CMakeLists.txt) is
compiled into .bench_build/ (or $CARGO_TARGET_DIR) on first use. The last line
of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with spans off; with --trace 1 they are the per-layer metrics,
and a Chrome trace-event file (open it in https://ui.perfetto.dev) is
written under .bench_build/traces/. The line before the result carries
details the metric names alone cannot say (the tail percentile used,
the latency-class placement, host probe, iteration counts).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("profile-cli", "sweep-synth", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_root, env):
    """Configure (once) and build perfbench-workloads; return its path."""
    cmake_dir = os.path.join(build_root, "cmake")
    cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")) \
            and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (cmd, ["cmake", "--build", cmake_dir, "-j", jobs,
                       "--target", "perfbench-workloads"]):
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench-workloads")


def run_workload(binary, args, work, raw_path, env):
    cmd = [binary, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ".", "--work", work, "--out", raw_path]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: workload exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        raise SystemExit("perfbench: workload failed with exit code %d" % code)


def finite(value, ceiling):
    """Failures rank as +inf; report them as the phase's wall time."""
    return ceiling if math.isinf(value) else value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    binary = build(build_root, env)

    tag = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                    os.getpid())
    # Relative, so the daemon's Unix socket path inside it stays short.
    work = os.path.relpath(os.path.join(build_root, "work", tag))
    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    raw_path = os.path.join(runs, tag + ".json")
    try:
        run_workload(binary, args, work, raw_path, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(raw_path) as f:
        raw = json.load(f)

    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        end_to_end_units, per_layer_units = metrics.declared(json.load(f))
    ops = metrics.workload_ops(raw, pins)
    e2e, detail = metrics.end_to_end(raw, pins)
    ceiling = next(p["wall_s"] for p in raw["phases"]
                   if p["name"] == "untraced") * 1e3
    e2e = {k: finite(v, ceiling) for k, v in e2e.items()}

    if args.trace:
        layer, spans, self_ns = metrics.per_layer(raw, pins)
        # Only a failed op can make a ratio non-finite; the run then
        # reports correct: false, and the value is meaningless anyway.
        layer = {k: v if math.isfinite(v) else 0.0 for k, v in layer.items()}
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(traces, tag + ".trace.json")
        with open(trace_path, "w") as f:
            json.dump(metrics.trace_events(spans, self_ns), f)
        detail["trace_events"] = trace_path
        detail["end_to_end_untraced_half"] = e2e
        result = metrics.result_line(ops, layer, per_layer_units)
    else:
        result = metrics.result_line(ops, e2e, end_to_end_units)

    if detail.get("latency_classes_ok") is False:
        log("a percentile sits within %.2f of a latency-class boundary: %s"
            % (metrics.CLASS_MARGIN, detail["latency_class_placement"]))
    if not result["correct"]:
        log("%d of %d operations were not verified correct"
            % (result["failed"], result["attempted"]))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    started = time.time()
    main()
    log("done in %.1f s" % (time.time() - started))
