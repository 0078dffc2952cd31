"""Host-time benchmark of the LIA simulator: cold start, warm reruns, layers.

Run from the root of a source checkout::

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Each sample is a fresh interpreter (``child.py``) started from this
one process, with every sweep on one thread (``SERIAL_ENV``).
Samples run one after another until ``--seconds`` is spent (at least
``MIN_SAMPLES``), and every metric is the median over them.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``cold_s``,
``warm_s`` (host seconds at a reference machine speed, see
``at_reference_speed``) and ``peak_rss_mb``.  ``--trace 1`` runs
untraced/traced sample pairs instead and prints the per-layer
metrics, with the tracing overhead as traced minus untraced
``cold_s``.

Every simulated output is checked: a run on ``--seed n`` makes its
inputs from seed ``n % EXPECTED_SEEDS``, and each run's ``sim_*``
metrics and sha256 fingerprint must equal the committed
``expected.json`` entry for that seed; every sample's cold run must
also start from all-zero caches.  A run that differs, or a cold run that starts
warm, counts its operations as failed; a sample that dies counts one
run's worth.  The line before the last prints the ``sim_*`` metrics;
the last stdout line is the JSON result.  The full record, with a run
manifest, goes to ``hostbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: ``expected.json`` holds seeds ``0 .. EXPECTED_SEEDS - 1``.
EXPECTED_SEEDS = 100
RESULTS_DIR = os.path.join(HERE, "results")
#: Fewest samples (``--trace 0``) and untraced/traced pairs
#: (``--trace 1``) in a run, however long they take.
MIN_SAMPLES = 3
MIN_PAIRS = 1
#: Every run, samples and all, ends within this many seconds.
RUN_DEADLINE_S = 170.0

#: ``child.py``'s speed probe, in seconds, at the machine speed the
#: host times are reported at: its median on the 2-vCPU VM the bounds
#: were measured on.
PROBE_REFERENCE_S = 0.032

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
                    "peak_rss_mb": "MB"}
SIM_UNITS = {"sim_tokens_per_s": "tokens/s", "sim_p99_s": "s",
             "sim_served_fraction": "fraction", "sim_fig10_speedup": "x",
             "sim_fig11_gain": "x"}
PER_LAYER_UNITS = {
    "core.latency.calls": "count",
    "core.latency.self_s": "s",
    "core.optimizer.searches": "count",
    "core.optimizer.evaluations": "count",
    "core.optimizer.self_s": "s",
    "core.estimator.calls": "count",
    "core.estimator.self_s": "s",
    "core.cache.layer_latency.hit_rate": "fraction",
    "core.cache.optimal_policy.hit_rate": "fraction",
    "core.cache.estimate.hit_rate": "fraction",
    "core.cache.stall_outcome.hit_rate": "fraction",
    "serving.scheduler.profile_build_s": "s",
    "serving.scheduler.loop_self_s": "s",
    "serving.scheduler.iterations": "count",
    "serving.scheduler.host_us_per_iteration": "us",
    "serving.scheduler.policy_resolves": "count",
    "cxl.residency.demotions": "count",
    "cxl.residency.cxl_peak_gb": "GB",
    "serving.piecewise.run_s": "s",
    "serving.piecewise.host_ns_per_request": "ns",
    "serving.report.fold_s": "s",
    "telemetry.timeseries.fold_s": "s",
    "serving.fleet.run_s": "s",
    "serving.fleet.host_us_per_request": "us",
    "serving.fleet.retries": "count",
    "serving.fleet.hedges": "count",
    "experiments.runner.points": "count",
    "experiments.runner.workers": "count",
    "experiments.runner.sweep_s": "s",
    "process.import_s": "s",
    "workloads.generate_s": "s",
    "trace.cold_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


# ----------------------------------------------------------------------
# samples
#: Every sample runs on one thread.  The machine has few vCPUs shared
#: with other tenants, so a sweep pool or a BLAS pool would measure
#: the hand-off between threads, not the program; serial sweeps are
#: bit-identical to pooled ones, so the checked outputs do not move.
SERIAL_ENV = {"REPRO_SWEEP_WORKERS": "0", "REPRO_SWEEP_PROCESSES": "0",
              "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(SERIAL_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _sample(root: str, workload: str, seed: int, deadline: float,
            settle: int = 0, warm: int = 0,
            trace_path: str = "") -> Tuple[Optional[Dict[str, Any]], str]:
    """Run one fresh interpreter; its result, or ``None`` and why."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--settle", str(settle), "--warm", str(warm)]
    if trace_path:
        command += ["--trace", trace_path]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(command, cwd=root, env=_child_env(root),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"sample timed out after {timeout:.0f} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"sample exited {done.returncode}: {tail[0]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "sample printed no result"


def _load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def input_seed(seed: int) -> int:
    """The seed a run makes its inputs from: one with a committed entry."""
    return seed % EXPECTED_SEEDS


def expected_entry(expected: Dict[str, Any], workload: str,
                   seed: int) -> Optional[Dict[str, Any]]:
    """The committed outcome for ``(workload, input_seed(seed))``.
    Seed-independent workloads record one entry under ``"*"``."""
    table = expected.get(workload, {})
    return table.get("*") or table.get(str(input_seed(seed)))


class Checker:
    """Counts operations attempted and failed against the committed
    reference; with no reference every run counts as failed."""

    def __init__(self, reference: Optional[Dict[str, Any]]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def sample(self, result: Optional[Dict[str, Any]], why: str,
               operations: int) -> bool:
        """Check one sample; ``False`` if it produced nothing usable."""
        if result is None:
            self.attempted += operations
            self.failed += operations
            self.errors.append(why)
            return False
        cold_ok = result.get("caches_zero_at_cold", False)
        if not cold_ok:
            self.errors.append(f"pid {result['pid']}: caches were not "
                               "empty at cold start")
        reference = self.reference
        for index, outcome in enumerate(result["outcomes"]):
            differs = (reference is None
                       or outcome["fingerprint"] != reference["fingerprint"]
                       or outcome["sim"] != reference["sim"]
                       or outcome["attempted"] != reference["attempted"])
            if differs:
                self.errors.append(
                    f"pid {result['pid']} run {index}: output differs "
                    "from the committed reference")
            self.attempted += outcome["attempted"]
            if differs or (index == 0 and not cold_ok):
                self.failed += outcome["attempted"]
        return True


def _median(values: List[float]) -> float:
    # A run with no usable sample reports 0 beside ``correct: false``.
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# manifest
def _load_average() -> List[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def _commit(root: str) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_sha256(root: str) -> str:
    """Digest of every file under ``src/`` (the checkout may not be a
    git repository, so this identifies the code that ran)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def manifest(root: str, args: argparse.Namespace) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"workload": args.workload, "seed": args.seed,
            "input_seed": input_seed(args.seed), "seconds": args.seconds,
            "trace": args.trace,
            "commit": _commit(root), "source_sha256": _source_sha256(root),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "repro_env": {key: value for key, value in os.environ.items()
                          if key.startswith("REPRO_")},
            "loadavg_start": _load_average()}


# ----------------------------------------------------------------------
# the two kinds of run
def _time_left(started: float, seconds: float, last: float,
               count: int, minimum: int) -> bool:
    """Another sample fits: the last one's length fits in the budget."""
    if count < minimum:
        return True
    return time.monotonic() - started + last <= seconds


def run_end_to_end(root: str, args: argparse.Namespace,
                   checker: Checker, deadline: float
                   ) -> List[Dict[str, Any]]:
    workload = WORKLOADS[args.workload]
    samples: List[Dict[str, Any]] = []
    started = time.monotonic()
    last = 0.0
    count = 0
    while _time_left(started, args.seconds, last, count, MIN_SAMPLES):
        begin = time.monotonic()
        result, why = _sample(root, args.workload, input_seed(args.seed),
                              deadline, settle=workload.settle, warm=workload.warm)
        last = time.monotonic() - begin
        count += 1
        if checker.sample(result, why, workload.operations):
            samples.append(result)
        elif time.monotonic() > deadline:
            break
    return samples


def at_reference_speed(sample: Dict[str, Any]) -> Dict[str, List[float]]:
    """One sample's host times at the reference machine speed.

    The machine's shared vCPUs change speed by up to 1.5x within
    minutes, and whole runs shift with them.  Each time is divided by
    the speed the probes just before and just after it measured (their
    mean over ``PROBE_REFERENCE_S``).  A change to the program does not
    move the probe, so this keeps the program's share of the time and
    takes out the machine's.  ``probe_s`` holds one probe after set-up,
    one after the cold run, then one after each settle and warm rep.
    """
    probes = sample["probe_s"]

    def scaled(seconds: float, *around: float) -> float:
        return seconds * PROBE_REFERENCE_S / statistics.mean(around)

    first_warm = len(probes) - len(sample["warm_s"])
    return {"setup_s": [scaled(sample["setup_s"], probes[0])],
            "cold_s": [scaled(sample["cold_s"], probes[0], probes[1])],
            "warm_s": [scaled(seconds, probes[first_warm - 1 + i],
                              probes[first_warm + i])
                       for i, seconds in enumerate(sample["warm_s"])]}


def as_measured(sample: Dict[str, Any]) -> Dict[str, List[float]]:
    return {"setup_s": [sample["setup_s"]], "cold_s": [sample["cold_s"]],
            "warm_s": sample["warm_s"]}


def end_to_end_metrics(samples: List[Dict[str, Any]]
                       ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Medians over the run's samples: the host times at the reference
    speed with ``peak_rss_mb``, and the host times as measured."""
    def medians(times) -> Dict[str, float]:
        rows = [times(sample) for sample in samples]
        return {name: _median([v for row in rows for v in row[name]])
                for name in ("setup_s", "cold_s", "warm_s")}

    metrics = medians(at_reference_speed)
    metrics["peak_rss_mb"] = _median([s["peak_rss_mb"] for s in samples])
    return metrics, medians(as_measured)


def per_layer_metrics(traced: Dict[str, Any],
                      untraced_cold_s: float) -> Dict[str, float]:
    """The per-layer table from one traced sample."""
    layers = traced["layers"]

    def layer(name: str, key: str) -> float:
        return float(layers.get(name, {}).get(key, 0.0))

    counts = traced["outcomes"][0]["layer_counts"]
    hit_rates = {row["cache"]: row["hit_rate"]
                 for row in traced["cache_stats"]}
    counters = traced["counters"]
    iterations = counts.get("iterations", 0)
    requests = traced["outcomes"][0]["attempted"]
    loop_self = layer("serving.scheduler.loop", "self_s")
    piecewise = layer("serving.piecewise", "total_s")
    fleet = layer("serving.fleet", "total_s")
    metrics = {
        "core.latency.calls": layer("core.latency", "calls"),
        "core.latency.self_s": layer("core.latency", "self_s"),
        "core.optimizer.searches": counters.get("policy.searches", 0.0),
        "core.optimizer.evaluations": counters.get("policy.evaluations",
                                                   0.0),
        "core.optimizer.self_s": layer("core.optimizer", "self_s"),
        "core.estimator.calls": layer("core.estimator", "calls"),
        "core.estimator.self_s": layer("core.estimator", "self_s"),
        "serving.scheduler.profile_build_s": layer(
            "serving.scheduler.profile_build", "total_s"),
        "serving.scheduler.loop_self_s": loop_self,
        "serving.scheduler.iterations": float(iterations),
        "serving.scheduler.host_us_per_iteration": (
            loop_self / iterations * 1e6 if iterations else 0.0),
        "serving.scheduler.policy_resolves": float(
            counts.get("policy_resolves", 0)),
        "cxl.residency.demotions": float(counts.get("kv_demotions", 0)),
        "cxl.residency.cxl_peak_gb": counts.get("kv_cxl_peak_bytes",
                                                0.0) / 1e9,
        "serving.piecewise.run_s": piecewise,
        "serving.piecewise.host_ns_per_request": (
            piecewise / requests * 1e9 if piecewise else 0.0),
        "serving.report.fold_s": layer("serving.report", "total_s"),
        "telemetry.timeseries.fold_s": layer("telemetry.timeseries",
                                             "total_s"),
        "serving.fleet.run_s": fleet,
        "serving.fleet.host_us_per_request": (
            fleet / requests * 1e6 if fleet else 0.0),
        "serving.fleet.retries": float(counts.get("retries", 0)),
        "serving.fleet.hedges": float(counts.get("hedges", 0)),
        "experiments.runner.points": float(traced["sweep_points"]),
        "experiments.runner.workers": float(traced["sweep_workers"]),
        "experiments.runner.sweep_s": layer("experiments.runner",
                                            "total_s"),
        "process.import_s": traced["import_s"],
        "workloads.generate_s": traced["generate_s"],
        "trace.cold_s": traced["cold_s"],
        "trace.overhead_s": traced["cold_s"] - untraced_cold_s,
        # Cold-run time inside no timed layer: what the table misses.
        "trace.unattributed_s": layer("hostbench", "self_s"),
    }
    for cache in ("layer_latency", "optimal_policy", "estimate",
                  "stall_outcome"):
        metrics[f"core.cache.{cache}.hit_rate"] = hit_rates.get(cache, 0.0)
    return metrics


def run_traced(root: str, args: argparse.Namespace, checker: Checker,
               deadline: float
               ) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    workload = WORKLOADS[args.workload]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    rows: List[Dict[str, float]] = []
    samples: List[Dict[str, Any]] = []
    started = time.monotonic()
    last = 0.0
    count = 0
    while _time_left(started, args.seconds, last, count, MIN_PAIRS):
        begin = time.monotonic()
        plain, why = _sample(root, args.workload, input_seed(args.seed),
                             deadline)
        usable = checker.sample(plain, why, workload.operations)
        trace_path = os.path.join(
            RESULTS_DIR,
            f"{args.workload}-seed{args.seed}-{count}.trace.json")
        traced, why = _sample(root, args.workload, input_seed(args.seed),
                              deadline, trace_path=trace_path)
        usable = checker.sample(traced, why, workload.operations) and usable
        last = time.monotonic() - begin
        count += 1
        if usable:
            samples += [plain, traced]
            rows.append(per_layer_metrics(traced, plain["cold_s"]))
        elif time.monotonic() > deadline:
            break
    return ({name: _median([row[name] for row in rows])
             for name in PER_LAYER_UNITS}, samples)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("hostbench: run from the root of a source checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    record = manifest(root, args)
    checker = Checker(expected_entry(_load_expected(), args.workload,
                                     args.seed))
    if checker.reference is None:
        checker.errors.append(f"expected.json has no entry for "
                              f"{args.workload} seed {input_seed(args.seed)}")
    started = time.monotonic()
    if args.trace:
        metrics, samples = run_traced(root, args, checker, deadline)
        units = PER_LAYER_UNITS
    else:
        samples = run_end_to_end(root, args, checker, deadline)
        metrics, record["measured"] = end_to_end_metrics(samples)
        record["probe_median_s"] = _median(
            [p for s in samples for p in s["probe_s"]])
        units = END_TO_END_UNITS
    record["elapsed_s"] = time.monotonic() - started
    record["loadavg_end"] = _load_average()
    if samples:
        record["sweep_workers"] = samples[0]["sweep_workers"]
        record["sweep_processes"] = samples[0]["sweep_processes"]

    reference = checker.reference or {}
    observed = samples[0]["outcomes"][0]["sim"] if samples else {}
    correct = checker.failed == 0 and bool(samples)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"manifest": record, "metrics": metrics,
                   "sim": observed,
                   "reference_fingerprint": reference.get("fingerprint"),
                   "errors": checker.errors,
                   "samples": samples}, handle, indent=1)
    for error in checker.errors:
        print(f"hostbench: {error}", file=sys.stderr)
    if "measured" in record:
        print("measured " + json.dumps(
            {"probe_median_s": record["probe_median_s"],
             **record["measured"]}, sort_keys=True))
    print("sim " + json.dumps({name: {"value": value,
                                      "unit": SIM_UNITS[name]}
                               for name, value in observed.items()},
                              sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
