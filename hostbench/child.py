"""One fresh interpreter: set up one workload, run it cold, then warm.

``run.py`` starts this file once per sample, so ``import repro`` and
every cache start empty, exactly as for a CLI user.  It prints one
JSON object on its last stdout line:

* ``import_s`` / ``generate_s`` / ``setup_s`` — ``import repro``,
  then the workload's set-up (zoo lookups, estimator, inputs from
  the seed), and their sum: fresh interpreter to inputs ready.
* ``cold_s`` — the first full run.  ``cache_stats()`` must read
  all-zero when it starts; nothing warms the process before it.
* ``warm_s`` — one time per measured warm rep.  The first
  ``settle`` warm reps are run untimed: sub-second warm times drift
  down over the first reps of a process as the allocator adapts.
* ``peak_rss_mb`` — the process's peak resident set.
* ``probe_s`` — one fixed ~30 ms speed probe before the cold run and after
  every later run (see ``_speed_probe``).
* the outcome of every run (simulated metrics, fingerprint), made
  after its timed region closes, so the parent can check every run.

With ``--trace PATH`` the cold run is traced instead (see
``layertrace.py``), the per-layer table is added, the spans are written to
``PATH`` as a Chrome trace, and no warm reps run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _speed_probe() -> float:
    """Seconds for a fixed slice of pure-Python and numpy work.

    The parent divides each host time by the probes just before and
    after it, to take out how fast the machine ran at the time: its
    vCPUs are shared, and their speed moves by up to 1.5x.  The
    probe runs only between timed runs, never inside one, and holds
    no memory after it returns.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(60_000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        total += (i % 7) * 1.5
    values = np.arange(2000.0)
    for __ in range(600):
        values = np.sort(values[::-1] * 1.0000001)
    return time.perf_counter() - start


def _timed_run(workload, inputs):
    """One run, timed alone; its checked outcome is made afterwards."""
    gc.collect()
    start = time.perf_counter()
    result = workload.run(inputs)
    elapsed = time.perf_counter() - start
    return elapsed, workload.check(inputs, result)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--settle", type=int, default=0)
    parser.add_argument("--warm", type=int, default=0)
    parser.add_argument("--trace", default="")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (timed: part of every cold start)
    imported = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    ready = time.perf_counter()
    result = {"workload": args.workload, "seed": args.seed,
              "pid": os.getpid(),
              "import_s": imported - started,
              "generate_s": ready - imported,
              "setup_s": ready - started}

    from repro.core.cache import cache_stats
    from repro.experiments.parallel import default_processes
    from repro.experiments.runner import default_workers

    result["caches_zero_at_cold"] = all(
        row["hits"] == row["misses"] == row["size"] == 0
        for row in cache_stats())

    result["sweep_workers"] = default_workers()
    result["sweep_processes"] = default_processes()

    if args.trace:
        return _traced(args, workload, inputs, result)

    probes = [_speed_probe()]
    result["cold_s"], outcome = _timed_run(workload, inputs)
    probes.append(_speed_probe())
    outcomes = [outcome]
    for __ in range(args.settle):
        outcomes.append(workload.check(inputs, workload.run(inputs)))
        probes.append(_speed_probe())
    warm = []
    for __ in range(args.warm):
        elapsed, outcome = _timed_run(workload, inputs)
        probes.append(_speed_probe())
        warm.append(elapsed)
        outcomes.append(outcome)
    result["warm_s"] = warm
    result["probe_s"] = probes
    result["peak_rss_mb"] = _peak_rss_mb()
    result["outcomes"] = [vars(o) for o in outcomes]
    print(json.dumps(result))
    return 0


def _traced(args, workload, inputs, result) -> int:
    from repro.core.cache import cache_stats
    from repro.telemetry import Telemetry, activate
    from layertrace import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    telemetry = Telemetry()
    gc.collect()
    try:
        with activate(telemetry):
            with tracer.span("hostbench", f"{args.workload}.cold") as root:
                run_result = workload.run(inputs)
    finally:
        tracer.uninstall()
    result["cold_s"] = root.duration_ns / 1e9
    result["peak_rss_mb"] = _peak_rss_mb()
    result["outcomes"] = [vars(workload.check(inputs, run_result))]
    result["layers"] = tracer.layer_totals()
    self_times = tracer.self_times()
    result["self_sum_s"] = sum(self_times)
    result["min_self_s"] = min(self_times)
    result["spans"] = len(tracer.spans)
    result["threads"] = len({span.thread for span in tracer.spans})
    result["sweep_points"] = tracer.sweep_points
    result["cache_stats"] = cache_stats()
    counters = {}
    for counter in telemetry.metrics.counters():
        if counter.name.startswith(("policy.", "cache.")):
            counters[counter.name] = (counters.get(counter.name, 0.0)
                                      + counter.value)
    result["counters"] = counters
    tracer.write_chrome(args.trace, metadata={
        "workload": args.workload, "seed": args.seed,
        "cold_s": result["cold_s"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
