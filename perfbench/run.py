#!/usr/bin/env python3
"""Run one workload of the weatherlpr benchmark.

    python3 perfbench/run.py --workload grid-none --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from ``--seed`` (several times, to time set-up),
runs whole rounds of the workload until ``--seconds`` have passed, checks the
outputs against independent oracles and prints one JSON object as the last
line of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one warm-up round, then alternates untraced and traced
rounds and reports the per-layer metrics from the traced ones, plus the
tracing overhead.
Each run is one process and one caller: a closed loop.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3       # set-up is timed this many times; its median is setup_s


def limit_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)


def host_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tr, units, forward_peaks):
    """Per-layer metrics from the traced rounds' spans and counters."""
    from workloads import NET_BLOCKS, TENSOR_OPS
    out = {}

    def mean(name, span, scale, unit):
        out[name] = (_mean(tr.durations(span)) * scale, unit)

    mean("bench.make_synthetic_world.s", "bench.make_synthetic_world", 1, "s")
    mean("bench.build_database.ms", "bench.build_database", 1e3, "ms")
    mean("bench.run_benchmark.s", "bench.run_benchmark", 1, "s")
    for kind in ("fog", "snow", "rain"):
        mean(f"weathersim.corrupt.{kind}.ms", f"weathersim.corrupt.{kind}", 1e3, "ms")
    for fn in ("project", "back_project", "read_scan"):
        mean(f"pointcloud.{fn}.ms", f"pointcloud.{fn}", 1e3, "ms")
    mean("restorenet.forward.ms", "restorenet.forward", 1e3, "ms")
    out["restorenet.forward.peak_mb"] = (max(forward_peaks, default=0) / 2**20, "MB")
    for block in NET_BLOCKS:
        mean(f"restorenet.{block}.fwd_ms", f"restorenet.{block}.fwd", 1e3, "ms")
        mean(f"restorenet.{block}.bwd_ms", f"restorenet.{block}.bwd", 1e3, "ms")
    train = tr.durations("restorenet.train")
    out["restorenet.train_step.ms"] = (sum(train) * 1e3 / units if train else 0.0, "ms")
    mean("restorenet.adam_step.ms", "restorenet.adam_step", 1e3, "ms")
    selfs = tr.self_times()
    for op in TENSOR_OPS:
        for name in (op, f"{op}_backward"):
            out[f"tensorops.{name}.ms"] = (selfs.get(f"tensorops.{name}", 0.0) * 1e3 / units, "ms")
    for op in ("conv2d", "softmax"):
        out[f"tensorops.{op}.calls"] = (len(tr.durations(f"tensorops.{op}")) / units, "count")
    for fn in ("dwt2", "idwt2"):
        mean(f"wavelet.{fn}.ms", f"wavelet.{fn}", 1e3, "ms")
    mean("lpr.make_descriptor.ms", "lpr.make_descriptor", 1e3, "ms")
    query = sorted(tr.durations("lpr.query"))
    mean("lpr.query.ms", "lpr.query", 1e3, "ms")
    p99 = statistics.quantiles(query, n=100)[98] if len(query) >= 2 else _mean(query)
    out["lpr.query.p99_ms"] = (p99 * 1e3, "ms")
    out["lpr.sc_distance.calls"] = (
        tr.counts.get("lpr.sc_distance", 0) / len(query) if query else 0.0, "count")
    for fn in ("candidates", "add", "save", "load"):
        mean(f"lpr.{fn}.ms", f"lpr.{fn}", 1e3, "ms")
    mean("metrics.score_records.ms", "metrics.score_records", 1e3, "ms")
    out["metrics.has_positive.calls"] = (tr.counts.get("metrics.has_positive", 0) / units, "count")
    mean("cli.index.s", "cli.index", 1, "s")
    mean("cli.evaluate.s", "cli.evaluate", 1, "s")
    return out


def run(wl, seed, seconds, trace, work):
    from tracer import Patches, Tracer
    from workloads import trace_targets

    tr = Tracer() if trace else None
    setup_times = []
    for _ in range(SETUPS):
        patches = Patches()
        if tr:
            trace_targets(tr, patches)
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        setup_times.append(time.perf_counter() - t0)
        patches.undo()

    forward_peaks = []
    # (seconds, units, kind, ok); a traced run first warms up with one round
    # that is not timed, so the first untraced round does not carry the
    # process's warm-up into the overhead figure
    rounds = []
    start = time.perf_counter()
    while True:
        kind = "plain"
        if tr is not None:
            kind = "warm" if not rounds else ("traced" if len(rounds) % 2 == 0 else "plain")
        patches = Patches()
        wl.captures(state, patches)
        if kind == "traced":
            net = wl.net(state)
            trace_targets(tr, patches, net)
            if net is not None:
                patches.wrap(net, "forward", _peak_memory(forward_peaks))
        ok = True
        t0 = time.perf_counter()
        try:
            wl.run_round(state)
        except Exception:
            traceback.print_exc()
            ok = False
        elapsed = time.perf_counter() - t0
        patches.undo()
        if ok:
            wl.after_round(state)
        rounds.append((elapsed, state["units"], kind, ok))
        if time.perf_counter() - start >= seconds and (
                tr is None or (len(rounds) >= 3 and len(rounds) % 2 == 1)):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    good = [r for r in rounds if r[3]]
    fails = wl.check(state) if good and good[-1] is rounds[-1] else ["last round failed"]
    for msg in fails[:20]:
        print(f"CHECK FAILED [{wl.name}]: {msg}", file=sys.stderr)
    if len(fails) > 20:
        print(f"CHECK FAILED [{wl.name}]: {len(fails) - 20} more", file=sys.stderr)

    def rate(kind):
        # whole-run throughput: contention on this class of host comes in
        # bursts of seconds, which a total integrates and a median does not
        units = sum(u for _, u, k, _ in good if k == kind)
        return units / sum(s for s, _, k, _ in good if k == kind)

    if tr:
        traced_units = sum(u for _, u, k, _ in good if k == "traced")
        metrics = layer_metrics(tr, traced_units, forward_peaks)
        metrics["trace.overhead_pct"] = ((rate("plain") / rate("traced") - 1.0) * 100.0, "%")
        os.makedirs(OUT, exist_ok=True)
        tr.write(os.path.join(OUT, f"trace-{wl.name}-seed{seed}.jsonl"))
    else:
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "scans_per_s": (rate("plain"), "scans/s"),
                   "peak_mem_mb": (peak_mb, "MB")}
    return {
        "correct": not fails,
        "attempted": sum(u for _, u, _, _ in rounds),
        "failed": sum(u for _, u, _, ok in rounds if not ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _peak_memory(peaks):
    """Wrapper factory recording the tracemalloc peak of each call."""
    def make(fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured
    return make


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weatherlpr", "__init__.py")):
        print(f"weatherlpr sources not found under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path[:0] = [SRC, HERE]
    import weatherlpr
    from workloads import WORKLOADS
    if os.path.dirname(os.path.abspath(weatherlpr.__file__)) != os.path.join(SRC, "weatherlpr"):
        print(f"weatherlpr imported from {weatherlpr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{wl.name}-{os.getpid()}")
    try:
        result = run(wl, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("host " + json.dumps(host_info()))
    line = json.dumps(result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
