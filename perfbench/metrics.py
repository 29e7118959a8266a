"""Turn the raw samples of a run into the benchmark's metrics.

Everything here is a pure function of the raw report that
perfbench-workloads writes, so it can be tested without building or
running the program (see test_metrics.py). run.py is the only caller.
"""

import math
import statistics

MIB = 1024.0 * 1024.0

# Tail percentiles, highest first. The tail reported is the highest one
# with at least MIN_BEYOND samples ranked above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10

# A percentile closer than this (as a share of all samples) to a
# boundary between two latency classes is reported as misplaced.
CLASS_MARGIN = 0.03



def declared(benchmark):
    """(end-to-end {name: unit}, per-layer {name: unit}) as BENCHMARK.json
    declares them; the declaration is the one list of metric names."""
    return ({m["name"]: m["unit"] for m in benchmark["end_to_end"]},
            {m["name"]: m["unit"] for m in benchmark["per_layer"]})


# ---- order statistics -------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def rank_index(n, p):
    """Nearest-rank index of percentile p among n sorted samples."""
    return max(0, math.ceil(p / 100.0 * n) - 1)


def percentile(values, p):
    """Nearest-rank percentile; failures should be passed as math.inf."""
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), p)]


def tail_percentile(n):
    """(p, beyond): the highest ladder percentile with >= MIN_BEYOND
    samples ranked above it among n; the median when n is too small."""
    for p in TAIL_LADDER:
        beyond = n - 1 - rank_index(n, p)
        if beyond >= MIN_BEYOND:
            return p, beyond
    return 50.0, max(0, n - 1 - rank_index(n, 50.0))


# ---- spans ------------------------------------------------------------------

def self_times(spans):
    """Map span id -> self time in ns: its duration minus the union of
    the intervals its children cover, clipped to the span itself."""
    children = {}
    for s in spans:
        children.setdefault(s["p"], []).append(s)
    result = {}
    for s in spans:
        start, end = s["s"], s["e"]
        covered, cursor = 0, start
        kids = sorted(children.get(s["id"], ()), key=lambda c: c["s"])
        for c in kids:
            lo, hi = max(c["s"], cursor), min(c["e"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (end - start) - covered
    return result


def trace_events(spans, self_ns):
    """Chrome trace-event JSON (what Perfetto and about:tracing open)."""
    t0 = min((s["s"] for s in spans), default=0)
    events = []
    for pid in sorted({s["pid"] for s in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": "perfbench %d" % pid}})
    for s in spans:
        args = dict(s["a"])
        args.update({"id": s["id"], "parent": s["p"], "rid": s["r"],
                     "phase": s["ph"], "self_us": self_ns[s["id"]] / 1e3})
        events.append({
            "name": s["n"], "cat": s["n"].split(".")[0], "ph": "X",
            "ts": (s["s"] - t0) / 1e3, "dur": (s["e"] - s["s"]) / 1e3,
            "pid": s["pid"], "tid": s["tid"], "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---- latency classes --------------------------------------------------------

def latency_class_check(samples, quantiles, margin=CLASS_MARGIN):
    """Where each quantile falls among latency classes.

    samples: (class label, latency) pairs. Classes are ordered by their
    median latency and stacked by their share of the samples; each
    quantile (a share in 0..1) must sit at least `margin` away from
    every boundary between two classes. Returns (ok, placements) with
    one (quantile, class label, distance to nearest boundary) each.
    """
    by_class = {}
    for label, latency in samples:
        by_class.setdefault(label, []).append(latency)
    order = sorted(by_class, key=lambda c: (median(by_class[c]), c))
    n = float(len(samples))
    edges, acc = [], 0.0
    for label in order:
        lo = acc
        acc += len(by_class[label]) / n
        edges.append((label, lo, acc))
    bounds = [hi for _, _, hi in edges[:-1]]
    placements, ok = [], True
    for q in quantiles:
        label = next((c for c, lo, hi in edges if lo <= q < hi),
                     edges[-1][0])
        distance = min((abs(q - b) for b in bounds), default=1.0)
        ok = ok and distance >= margin
        placements.append((q, label, distance))
    return ok, placements


# ---- correctness ------------------------------------------------------------

def profile_cli_ops(raw, pins):
    """One op per child profile: ok when it exited cleanly and its
    digest and window equal the pins."""
    ops = []
    for c in raw["children"]:
        if c["kind"] != "profile":
            continue
        report = c.get("report")
        pin = pins.get(c["recording"], {}).get(c["mode"])
        ok = (c["exit"] == 0 and report is not None and pin is not None
              and report["digest"] == pin["digest"]
              and report["window"] == pin["window"])
        ops.append((c, ok))
    return ops


def sweep_ops(raw):
    """One op per (iteration, member): ok when the profile matches the
    in-memory sequential oracle and the published trace is byte-identical
    to the first iteration's."""
    oracle = {o["member"]: o for o in raw["oracle"]}
    first = {}
    for m in sorted(raw["members"], key=lambda m: m["iteration"]):
        first.setdefault(m["member"], m["trace_digest"])
    ops = []
    for m in raw["members"]:
        o = oracle.get(m["member"])
        ok = (o is not None and m["digest"] == o["digest"]
              and m["window"] == o["window"]
              and m["records"] == o["records"]
              and m["profiled_records"] == o["records"]
              and m["trace_digest"] == first[m["member"]])
        ops.append((m, ok))
    return ops


def serve_ops(raw, pins):
    """One op per query: ok when it came back ok, over the window asked,
    with the oracle's digest, and (full windows) the pinned digest."""
    oracle = {(o["recording"], o["mode"], o["window"]): o["digest"]
              for o in raw["oracle"]}
    full = raw["full_windows"]
    ops = []
    for q in raw["queries"]:
        expected = full[q["recording"]] if q["end_index"] < 0 \
            else min(q["end_index"], full[q["recording"]])
        ok = (q["transport_ok"] and q["status"] == "ok"
              and q["window"] == expected
              and oracle.get((q["recording"], q["mode"], expected))
              == q["digest"])
        if ok and expected == full[q["recording"]]:
            pin = pins.get(q["recording"], {}).get(q["mode"])
            ok = pin is not None and pin["digest"] == q["digest"] \
                and pin["window"] == expected
        ops.append((q, ok))
    return ops


def workload_ops(raw, pins):
    workload = raw["workload"]
    if workload == "profile-cli":
        return profile_cli_ops(raw, pins)
    if workload == "sweep-synth":
        return sweep_ops(raw)
    return serve_ops(raw, pins)


# ---- end-to-end metrics -----------------------------------------------------

def _phase(raw, name):
    return next((p for p in raw["phases"] if p["name"] == name), None)


def _iterations(items, ok_of, records_of, ns_of):
    """Per iteration: (records, ns, all ops ok)."""
    iterations = {}
    for item in items:
        it = iterations.setdefault(item["iteration"], [0, 0, True])
        it[0] += records_of(item)
        it[1] += ns_of(item)
        it[2] = it[2] and ok_of(item)
    return list(iterations.values())


def _rates(iterations):
    """Mrec/s per iteration; one holding a failed op scores 0, below
    every success."""
    return [r / ns * 1e3 if ok and ns else 0.0 for r, ns, ok in iterations]


def _latencies_ms(iterations):
    """Iteration latency in ms; a failed one ranks slower than all."""
    return [ns / 1e6 if ok else math.inf for _, ns, ok in iterations]


def _setup_recording(raw):
    """(record_mrec_s, trace_bytes_per_rec) of the paper recordings the
    set-up children wrote: the median repetition's rate."""
    reps = {}
    for c in raw.get("children", ()):
        if c["kind"] == "record":
            rep = reps.setdefault(c["rep"], [0, 0, 0])
            rep[0] += c["report"]["records"]
            rep[1] += c["report"]["record_ns"]
            rep[2] += c["report"]["trace_bytes"]
    rates = [r / ns * 1e3 for r, ns, _ in reps.values()]
    records, _, size = next(iter(reps.values()))
    return median(rates), size / float(records)


def end_to_end(raw, pins, phase="untraced"):
    """(metrics, detail) for the named phase. Every workload reports all
    nine metrics; README.md defines what each means per workload."""
    workload = raw["workload"]
    ops = workload_ops(raw, pins)
    ok_frac = sum(1 for _, ok in ops if ok) / float(len(ops)) if ops else 0.0
    summary = _phase(raw, phase)
    in_phase = [(item, ok) for item, ok in ops if item["phase"] == phase]
    ok_of = {id(item): ok for item, ok in in_phase}
    items = [item for item, _ in in_phase]
    m = {"setup_s": median(raw["setup_s"]), "ok_frac": ok_frac,
         "peak_rss_mb": summary["process_peak_rss_mb"],
         "queries_per_s": sum(1 for _, ok in in_phase if ok)
         / summary["wall_s"]}
    detail = {}
    latencies = None

    if workload == "profile-cli":
        iterations = _iterations(
            items, lambda c: ok_of[id(c)],
            lambda c: c["report"]["records"] if c.get("report") else 0,
            lambda c: c["wall_ns"])
        m["profile_mrec_s"] = median(_rates(iterations))
        latencies = _latencies_ms(iterations)
        m["record_mrec_s"], m["trace_bytes_per_rec"] = _setup_recording(raw)
        m["peak_rss_mb"] = max([m["peak_rss_mb"]] + [
            c["report"]["peak_rss_mb"] for c in items if c.get("report")])
    elif workload == "sweep-synth":
        ok = lambda x: ok_of[id(x)]
        recs = lambda x: x["records"]
        record = _iterations(items, ok, recs, lambda x: x["record_ns"])
        profile = _iterations(items, ok, recs, lambda x: x["profile_ns"])
        both = _iterations(items, ok, recs,
                           lambda x: x["record_ns"] + x["profile_ns"])
        m["record_mrec_s"] = median(_rates(record))
        m["profile_mrec_s"] = median(_rates(profile))
        # Member sizes follow the seed, so a sweep "query" is one million
        # records recorded, published and profiled: ms per Mrec.
        latencies = [ns / 1e6 / (r / 1e6) if ok else math.inf
                     for r, ns, ok in both]
        m["queries_per_s"] = median(_rates(both))
        m["trace_bytes_per_rec"] = (sum(x["trace_bytes"] for x in items)
                                    / float(sum(recs(x) for x in items)))
    else:
        latencies = [(q["end_ns"] - q["start_ns"]) / 1e6 if ok
                     else math.inf for q, ok in in_phase]
        m["profile_mrec_s"] = sum(q["window"] for q, ok in in_phase if ok) \
            / summary["wall_s"] / 1e6
        m["record_mrec_s"], m["trace_bytes_per_rec"] = _setup_recording(raw)
        class_ok, placed = latency_class_check(
            [((q["recording"], q["kind"]), lat)
             for (q, _), lat in zip(in_phase, latencies)],
            (0.5, tail_percentile(len(latencies))[0] / 100.0))
        detail["latency_classes_ok"] = class_ok
        detail["latency_class_placement"] = [
            {"quantile": q, "class": "/".join(label), "margin": round(d, 4)}
            for q, label, d in placed]

    p_tail, beyond = tail_percentile(len(latencies))
    m["query_ms_p50"] = median(latencies)
    m["query_ms_tail"] = (m["query_ms_p50"] if p_tail == 50.0
                          else percentile(latencies, p_tail))
    detail.update({
        "latency_samples": len(latencies), "tail_percentile": p_tail,
        "tail_samples_beyond": beyond,
        "ops_attempted": len(ops), "ops_ok": sum(1 for _, ok in ops if ok),
        "setup_s_samples": raw["setup_s"],
        "host_probe_ms": median(raw["probe_ms"]),
        "cpu_per_wall": summary["cpu_s"] / summary["wall_s"],
    })
    return m, detail


# ---- per-layer metrics ------------------------------------------------------

_PHASE_ORDER = (("timed",), ("setup", "replay", "verify"))


def _pick(spans, name, pred=None):
    """Spans named `name` from the traced timed phase; when the layer did
    no work there, from the phases where this workload does call it."""
    for phases in _PHASE_ORDER:
        chosen = [s for s in spans if s["n"] == name and s["ph"] in phases
                  and (pred is None or pred(s))]
        if chosen:
            return chosen
    return []


def _ratio(num, den):
    return num / float(den) if den else 0.0


def _counter_sum(raw, workload):
    """Registry counter deltas over the traced timed phase (summed from
    the child reports for profile-cli)."""
    if workload == "profile-cli":
        total = {}
        for c in raw["children"]:
            if c["kind"] == "profile" and c["phase"] == "timed" \
                    and c.get("report"):
                for k, v in c["report"]["counters"].items():
                    total[k] = total.get(k, 0) + v
        return total
    return _phase(raw, "timed")["counters"]


def _spans_of(raw):
    spans = list(raw["spans"])
    for c in raw.get("children", ()):
        if c.get("report"):
            spans.extend(c["report"].get("spans", ()))
    return spans


def _traced_records(raw, workload):
    if workload == "profile-cli":
        return sum(c["report"]["records"] for c in raw["children"]
                   if c["kind"] == "profile" and c["phase"] == "timed"
                   and c.get("report"))
    if workload == "sweep-synth":
        return sum(m["records"] for m in raw["members"]
                   if m["phase"] == "timed")
    return sum(q["window"] for q in raw["queries"] if q["phase"] == "timed")


def _overhead(raw, pins):
    """Traced over untraced cost of the workload's main operation, - 1."""
    workload = raw["workload"]
    untraced, _ = end_to_end(raw, pins, "untraced")
    traced, _ = end_to_end(raw, pins, "timed")
    if workload == "serve-mixed":
        return _ratio(traced["query_ms_p50"], untraced["query_ms_p50"]) - 1
    if workload == "sweep-synth":
        cost = lambda m: 1 / m["record_mrec_s"] + 1 / m["profile_mrec_s"]
        return _ratio(cost(traced), cost(untraced)) - 1
    # Traced profile-cli children also re-run the backward pass; take
    # that second call out of their wall time.
    timed = [c for c in raw["children"] if c["kind"] == "profile"
             and c["phase"] == "timed" and c.get("report")]
    rates = _rates(_iterations(
        timed, lambda c: True, lambda c: c["report"]["records"],
        lambda c: c["wall_ns"] - c["report"]["slice_recall_ns"]))
    return _ratio(untraced["profile_mrec_s"], median(rates)) - 1


def per_layer(raw, pins):
    """Every per-layer metric from the traced run's spans, counters and
    result frames. A layer the workload never calls reads 0."""
    workload = raw["workload"]
    spans = _spans_of(raw)
    self_ns = self_times(spans)
    counters = _counter_sum(raw, workload)

    def total_ns(chosen):
        return sum(self_ns[s["id"]] for s in chosen)

    def per_rec(name, arg, fallback=None):
        chosen = _pick(spans, name) or (
            _pick(spans, fallback) if fallback else [])
        return _ratio(total_ns(chosen), sum(s["a"][arg] for s in chosen))

    def mean_ms(chosen):
        return _ratio(total_ns(chosen), len(chosen)) / 1e6

    c = lambda k: counters.get(k, 0)
    m = {}
    m["scenario.run_ns_per_rec"] = per_rec("scenario.runScenario", "records")
    m["trace.encode_ns_per_rec"] = per_rec("trace.TraceWriter.append",
                                           "records")
    closes = _pick(spans, "trace.TraceWriter.close")
    saves = [s for s in spans if s["n"] == "trace.saveSidecars"
             and closes and s["ph"] == closes[0]["ph"]]
    m["trace.publish_ms"] = _ratio(total_ns(closes) + total_ns(saves),
                                   len(closes)) / 1e6
    m["trace.sidecars_ms"] = mean_ms(_pick(spans, "trace.loadArtifactSidecars"))
    m["trace.mapped_open_ns_per_rec"] = per_rec("trace.MappedTrace", "records")
    m["trace.prefetch_miss_frac"] = _ratio(
        c("trace.prefetch_misses"),
        c("trace.prefetch_hits") + c("trace.prefetch_misses"))
    m["trace.block_cache_hit_frac"] = _ratio(
        c("trace.block_cache_hits"),
        c("trace.block_cache_hits") + c("trace.block_cache_misses"))
    m["trace.bytes_decoded_per_rec"] = _ratio(
        c("trace.bytes_decoded"), _traced_records(raw, workload))
    m["graph.forward_ns_per_rec"] = per_rec("graph.buildCfgsFromFile",
                                            "records")
    m["graph.cdg_ms"] = mean_ms(_pick(spans, "graph.buildControlDeps"))
    m["slicer.backward_ns_per_rec"] = per_rec(
        "slicer.computeSliceFromFile", "window",
        fallback="slicer.computeSlice.sequential")

    ratios, peaks = [], []
    if workload == "profile-cli":
        for ch in raw["children"]:
            r = ch.get("report")
            if ch["kind"] == "profile" and ch["phase"] == "timed" and r:
                if r["slice_recall_ns"]:
                    ratios.append(r["slice_cold_ns"] / r["slice_recall_ns"])
                peaks.append(r["peak_live_mem"])
    elif workload == "sweep-synth":
        peaks = [mb["peak_live_mem"] for mb in raw["members"]
                 if mb["phase"] == "timed"]
    m["slicer.backward_cold_warm_ratio"] = median(ratios) if ratios else 0.0
    m["slicer.flat_probes_per_rec"] = _ratio(c("slicer.flat_probes"),
                                             c("slicer.records_fed"))
    m["slicer.peak_live_mem_mb"] = max(peaks, default=0) / MIB

    replay_walks = [s for s in spans if s["n"] == "slicer.computeSlice"
                    and s["ph"] == "replay"]
    walks = [s for s in replay_walks if not s["a"]["memo_hit"]]
    m["slicer.plan_build_ms"] = mean_ms(
        [s for s in spans if s["n"] == "service.SessionCache.acquirePlan"
         and s["ph"] == "replay" and not s["a"]["hit"]])
    m["slicer.plan_walk_ms"] = mean_ms(walks)
    m["slicer.memo_hit_frac"] = _ratio(c("slicer.memo_hits"),
                                       c("slicer.plan_hits"))
    m["slicer.epochs_skipped_frac"] = _ratio(
        sum(s["a"]["epochs_skipped"] for s in walks),
        sum(s["a"]["epochs"] for s in walks))
    m["slicer.epoch_fallbacks"] = float(c("slicer.epoch_fallbacks"))

    m["analysis.thread_stats_ns_per_rec"] = per_rec(
        "analysis.computeThreadStats", "window")
    m["analysis.categorize_ns_per_rec"] = per_rec(
        "analysis.categorizeUnnecessary", "window")
    m["analysis.function_stats_ns_per_rec"] = per_rec(
        "analysis.computeFunctionStats", "window")

    queries = [q for q in raw.get("queries", ()) if q["phase"] == "timed"]
    if queries:
        rt = [(q["end_ns"] - q["start_ns"]) / 1e6 for q in queries]
        m["service.queue_ms_p50"] = median([q["queue_ms"] for q in queries])
        m["service.run_ms_p50"] = median([q["run_ms"] for q in queries])
        m["service.slice_ms_p50"] = median([q["slice_ms"] for q in queries])
        m["service.wire_ms_p50"] = median(
            [t - q["queue_ms"] - q["run_ms"] for t, q in zip(rt, queries)])
        m["service.plan_hit_frac"] = _ratio(
            sum(1 for q in queries if q["plan_hit"]), len(queries))
        timed = _phase(raw, "timed")
        before, after = timed["stats_before"], timed["stats_after"]
        delta = lambda sec, k: after[sec][k] - before[sec][k]
        m["service.plan_evictions_per_query"] = _ratio(
            delta("cache", "plan_evictions"), len(queries))
        m["service.rejected_frac"] = _ratio(
            delta("scheduler", "rejected"), delta("scheduler", "submitted"))
        # The stats op's `bytes` already includes `plan_bytes`.
        m["service.cache_mb"] = after["cache"]["bytes"] / MIB
    else:
        for k in ("service.queue_ms_p50", "service.run_ms_p50",
                  "service.slice_ms_p50", "service.wire_ms_p50",
                  "service.plan_hit_frac",
                  "service.plan_evictions_per_query",
                  "service.rejected_frac", "service.cache_mb"):
            m[k] = 0.0
    m["service.session_acquire_ms"] = mean_ms(
        [s for s in spans if s["n"] == "service.SessionCache.acquire"
         and s["ph"] == "replay" and s["a"]["hit"]])
    m["service.session_build_s"] = mean_ms(
        [s for s in spans if s["n"] == "service.SessionCache.acquire"
         and s["ph"] == "setup" and not s["a"]["hit"]]) / 1e3

    untraced = _phase(raw, "untraced")
    m["proc.cpu_per_wall"] = _ratio(untraced["cpu_s"], untraced["wall_s"])
    m["proc.trace_overhead_frac"] = _overhead(raw, pins)
    m["host.probe_ms"] = median(raw["probe_ms"])
    return m, spans, self_ns


def result_line(ops, metrics, units):
    """The benchmark's last output line: exactly the declared metrics."""
    if set(metrics) != set(units):
        raise ValueError("metrics %s do not match the declared %s"
                         % (sorted(metrics), sorted(units)))
    attempted = len(ops)
    failed = sum(1 for _, ok in ops if not ok)
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
