"""The four benchmark workloads: inputs from a seed, one full run each.

Every workload has three parts:

* ``prepare(seed)`` is set-up, timed as ``setup_s``: zoo lookups,
  :class:`LiaEstimator` construction and input generation from the
  benchmark seed.
* ``run(inputs)`` is what a user of the matching CLI command waits
  for after set-up — the simulation and the report folds the command
  prints — timed as ``cold_s`` and ``warm_s``.
* ``check(inputs, result)`` is untimed.  It turns one run's result
  into an :class:`Outcome`: the simulated metrics, a sha256
  fingerprint of every simulated output, and the number of operations
  (requests offered or figure rows) attempted.

The program only ever sees the generated inputs; nothing here tunes
the simulator to the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict

import numpy as np

MODEL = "opt-30b"
SYSTEM = "spr-a100"
#: The ``repro serve`` default four-shape mix (batch, input, output).
SERVE_SHAPES = ((1, 128, 16), (1, 256, 32), (1, 512, 32), (8, 256, 32))

#: continuous-kv-tiered: Poisson load that keeps one scheduler's batch
#: full, with KV tiers shrunk so the HBM -> DDR -> CXL waterfall
#: demotes.  Below saturation the seed moves how much work a run does,
#: and the benchmark compares runs on different seeds.  Over eight
#: seeds the Eq. (1) re-solve count (most of the cold run after the
#: profile grid) spread 136-219 at 8/s and 190-220 at 4/s, against
#: 136-142 at 16/s; the decode-iteration count stays within 1%.
CONTINUOUS_REQUESTS = 400
CONTINUOUS_RATE_PER_S = 16.0
CONTINUOUS_MAX_BATCH = 8
CONTINUOUS_KV_GB = (4.0, 4.0, 1e6)

#: million-faults: ~95% utilization through the piecewise engine.
FAULTS_REQUESTS = 1_000_000
FAULTS_RATE_PER_S = 0.21
FAULTS_WINDOWS = 256

#: figure-grid: the SPR-A100 half of Figs. 9, 10 and 11 (199 rows).
FIGURE_SYSTEM = "spr-a100"

#: fleet-chaos: the bursty-chaos preset scaled up.
FLEET_PRESET = "bursty-chaos"
FLEET_REQUESTS = 250_000
FLEET_WINDOWS = 64


@dataclass
class Outcome:
    """What one run produced, as the benchmark checks it."""

    sim: Dict[str, float]
    fingerprint: str
    #: Simulated operations: requests offered, or figure rows.
    attempted: int
    #: Per-layer counts the traced run reports (not fingerprinted:
    #: the fingerprint already covers the report they come from).
    layer_counts: Dict[str, float] = field(default_factory=dict)


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _json_bytes(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, allow_nan=True).encode()


def _estimator():
    from repro.core.config import LiaConfig
    from repro.core.estimator import LiaEstimator
    from repro.hardware.system import get_system
    from repro.models.zoo import get_model

    return LiaEstimator(get_model(MODEL), get_system(SYSTEM),
                        LiaConfig(enforce_host_capacity=False))


def _serve_mix(n_requests: int, seed: int):
    from repro.models.workload import InferenceRequest
    from repro.serving import WorkloadVector

    shapes = [InferenceRequest(*shape) for shape in SERVE_SHAPES]
    return WorkloadVector.sample_mix(shapes, n_requests, seed=seed)


# ----------------------------------------------------------------------
# continuous-kv-tiered
def prepare_continuous(seed: int,
                       n_requests: int = CONTINUOUS_REQUESTS
                       ) -> Dict[str, Any]:
    from repro.cxl.residency import KvTierCapacities
    from repro.models.workload import InferenceRequest
    from repro.serving.scheduler import SchedulerConfig
    from repro.serving.simulator import arrivals_poisson

    hbm, ddr, cxl = CONTINUOUS_KV_GB
    config = SchedulerConfig(
        max_batch_requests=CONTINUOUS_MAX_BATCH,
        kv_capacities=KvTierCapacities(hbm_bytes=hbm * 1e9,
                                       ddr_bytes=ddr * 1e9,
                                       cxl_bytes=cxl * 1e9))
    # Exactly n/4 of each shape, in seeded order: the seed moves the
    # order and the arrivals, not the amount of work.
    shapes = [InferenceRequest(*shape) for shape in SERVE_SHAPES]
    order = np.random.default_rng(seed).permutation(n_requests)
    return {"estimator": _estimator(), "config": config,
            "requests": [shapes[i % len(shapes)] for i in order],
            "arrivals": arrivals_poisson(n_requests, CONTINUOUS_RATE_PER_S,
                                         seed=seed)}


def run_continuous(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.serving.scheduler import ContinuousBatchScheduler

    report = ContinuousBatchScheduler(
        inputs["estimator"], inputs["config"]).run(inputs["requests"],
                                                   inputs["arrivals"])
    # What ``repro serve --scheduler continuous`` prints.
    summary = {"p50": report.latency_percentile(0.50),
               "p95": report.latency_percentile(0.95),
               "p99": report.latency_percentile(0.99),
               "mean_queue_delay_s": report.mean_queue_delay,
               "makespan_s": report.makespan,
               "utilization": report.utilization,
               "throughput_tokens_per_s": report.throughput_tokens_per_s}
    return {"report": report, "summary": summary}


def check_continuous(inputs: Dict[str, Any],
                     result: Dict[str, Any]) -> Outcome:
    report, summary = result["report"], result["summary"]
    offered = len(inputs["requests"])
    batching = {"iterations": report.iterations,
                "admissions": report.admissions,
                "policy_resolves": report.policy_resolves,
                "kv_demotions": report.kv_demotions,
                "kv_peak_bytes": report.kv_peak_bytes,
                "occupancy_mean": report.occupancy_mean}
    sim = {"sim_tokens_per_s": summary["throughput_tokens_per_s"],
           "sim_p99_s": summary["p99"],
           "sim_served_fraction": len(report.served) / offered}
    return Outcome(sim=sim,
                   fingerprint=_sha256(report.fingerprint(),
                                       _json_bytes(summary),
                                       _json_bytes(batching),
                                       _json_bytes(sim)),
                   attempted=offered,
                   layer_counts={
                       "iterations": report.iterations,
                       "policy_resolves": report.policy_resolves,
                       "kv_demotions": report.kv_demotions,
                       "kv_cxl_peak_bytes": report.kv_peak_bytes["cxl"]})


# ----------------------------------------------------------------------
# million-faults
def composite_scenario(horizon: float):
    """The five-window ``bench-composite`` fault schedule over a run of
    ``horizon`` sim-seconds: every fault kind, two windows overlapping,
    the stall burst inside the pressure window, ~30% left healthy."""
    from repro.faults.spec import FaultEvent, FaultKind, FaultScenario

    windows = ((FaultKind.PCIE_DOWNSHIFT, 0.06, 0.20, 0.6),
               (FaultKind.GPU_HBM_PRESSURE, 0.22, 0.18, 0.35),
               (FaultKind.PCIE_STALL, 0.33, 0.03, 0.05),
               (FaultKind.CXL_CONTENTION, 0.55, 0.20, 0.55),
               (FaultKind.CPU_PREEMPTION, 0.80, 0.10, 0.3))
    return FaultScenario(
        name="bench-composite", seed=7, chunks_per_request=12,
        events=tuple(FaultEvent(kind, start=start * horizon,
                                duration=duration * horizon,
                                magnitude=magnitude)
                     for kind, start, duration, magnitude in windows))


def prepare_faults(seed: int,
                   n_requests: int = FAULTS_REQUESTS) -> Dict[str, Any]:
    from repro.serving.simulator import arrivals_poisson

    arrivals = np.asarray(arrivals_poisson(n_requests, FAULTS_RATE_PER_S,
                                           seed=seed),
                          dtype=np.float64)
    return {"estimator": _estimator(),
            "workload": _serve_mix(n_requests, seed),
            "arrivals": arrivals,
            "scenario": composite_scenario(float(arrivals[-1]))}


def run_faults(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.serving.simulator import ServingSimulator
    from repro.telemetry.timeseries import SLOPolicy, monitor_report

    report = ServingSimulator(inputs["estimator"]).run(
        inputs["workload"], inputs["arrivals"], scenario=inputs["scenario"])
    # What ``repro monitor`` folds: the summary and the SLO evaluation
    # at its automatic 1.25 x p95 threshold.
    summary = report.summary()
    monitoring = monitor_report(
        report, SLOPolicy(latency_threshold_s=1.25 * summary["p95"]),
        n_windows=FAULTS_WINDOWS)
    return {"report": report, "summary": summary, "monitoring": monitoring}


def check_faults(inputs: Dict[str, Any], result: Dict[str, Any]) -> Outcome:
    report, summary = result["report"], result["summary"]
    offered = int(inputs["arrivals"].size)
    # The report's own percentiles stream through a histogram at this
    # size; the checked p99 is the exact nearest rank.
    latencies = np.sort(report.latencies)
    rank = max(1, math.ceil(0.99 * latencies.size))
    sim = {"sim_tokens_per_s": summary["throughput_tokens_per_s"],
           "sim_p99_s": float(latencies[rank - 1]),
           "sim_served_fraction": int(report.served_index.size) / offered}
    return Outcome(
        sim=sim,
        fingerprint=_sha256(report.starts.tobytes(),
                            report.finishes.tobytes(),
                            report.served_index.tobytes(),
                            report.dropped_index.tobytes(),
                            _json_bytes(report.stats.as_dict()),
                            _json_bytes(summary),
                            _json_bytes(result["monitoring"].to_dict()),
                            _json_bytes(sim)),
        attempted=offered)


# ----------------------------------------------------------------------
# figure-grid
def prepare_figures(seed: int, **grid: Any) -> Dict[str, Any]:
    """The three figure drivers and their arguments.  The grids take
    no random input, so every seed regenerates the same rows;
    ``grid`` overrides driver arguments (the self-tests shrink them)."""
    from repro.experiments import (fig09_policy_map, fig10_online_latency,
                                   fig11_offline_throughput)

    pairs = tuple(pair for pair in fig10_online_latency.DEFAULT_PAIRS
                  if pair[0] == FIGURE_SYSTEM)
    return {"figures": (
        (fig09_policy_map, {"system_names": (FIGURE_SYSTEM,),
                            **grid.get("fig09", {})}),
        (fig10_online_latency, {"pairs": pairs, **grid.get("fig10", {})}),
        (fig11_offline_throughput, {"pairs": pairs,
                                    **grid.get("fig11", {})}))}


def _geomean(values) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def _framework_ratios(result, column: str, baseline: str,
                      lia_over_baseline: bool):
    keyed = {}
    for row in result.rows:
        point = tuple(sorted((k, v) for k, v in row.items()
                             if k not in ("framework", column)))
        keyed.setdefault(point, {})[row["framework"]] = row[column]
    ratios = []
    for values in keyed.values():
        lia, other = values["lia"], values[baseline]
        ratios.append(lia / other if lia_over_baseline else other / lia)
    return ratios


def run_figures(inputs: Dict[str, Any]) -> Dict[str, Any]:
    return {"results": [module.run(**kwargs)
                        for module, kwargs in inputs["figures"]]}


def check_figures(inputs: Dict[str, Any],
                  result: Dict[str, Any]) -> Outcome:
    results = result["results"]
    rows = [figure.rows for figure in results]
    sim = {"sim_fig10_speedup": _geomean(_framework_ratios(
               results[1], "latency_s", "ipex", lia_over_baseline=False)),
           "sim_fig11_gain": _geomean(_framework_ratios(
               results[2], "tokens_per_s", "flexgen",
               lia_over_baseline=True))}
    return Outcome(sim=sim,
                   fingerprint=_sha256(_json_bytes(rows), _json_bytes(sim)),
                   attempted=sum(len(figure_rows) for figure_rows in rows))


# ----------------------------------------------------------------------
# fleet-chaos
def prepare_fleet(seed: int,
                  n_requests: int = FLEET_REQUESTS) -> Dict[str, Any]:
    from repro.serving import get_fleet_preset

    preset = get_fleet_preset(FLEET_PRESET)
    trace = replace(preset.trace.scaled(n_requests), seed=seed)
    return {"simulator": preset.simulator(_estimator()),
            "workload": _serve_mix(n_requests, seed),
            "arrivals": trace.generate()}


def run_fleet(inputs: Dict[str, Any]) -> Dict[str, Any]:
    report = inputs["simulator"].run(inputs["workload"],
                                     inputs["arrivals"])
    # What ``repro fleet --json --html`` folds from the report.
    return {"report": report,
            "p50": report.latency_percentile(0.50),
            "p95": report.latency_percentile(0.95),
            "payload": report.to_dict(),
            "series": report.timeseries(n_windows=FLEET_WINDOWS)}


def check_fleet(inputs: Dict[str, Any], result: Dict[str, Any]) -> Outcome:
    report = result["report"]
    if report.n_served + report.n_dropped != report.n_offered:
        raise AssertionError("fleet report lost requests")
    tokens = inputs["workload"].tokens_per_request()[report.served_index]
    sim = {"sim_tokens_per_s": float(tokens.sum()) / report.makespan,
           "sim_p99_s": report.latency_percentile(0.99),
           "sim_served_fraction": report.availability}
    return Outcome(
        sim=sim,
        fingerprint=_sha256(report.starts.tobytes(),
                            report.finishes.tobytes(),
                            report.served_index.tobytes(),
                            report.dropped_index.tobytes(),
                            report.assignment.tobytes(),
                            _json_bytes(report.dropped_reasons),
                            _json_bytes(report.scale_events),
                            _json_bytes([result["p50"], result["p95"]]),
                            _json_bytes(result["payload"]),
                            _json_bytes(result["series"].to_dict()),
                            _json_bytes(sim)),
        attempted=report.n_offered,
        layer_counts={"retries": report.stats.retries,
                      "hedges": report.stats.hedges})


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Dict[str, Any]]
    check: Callable[[Dict[str, Any], Dict[str, Any]], Outcome]
    #: Operations one run attempts (requests offered or figure rows).
    operations: int
    #: Untimed warm reps before the timed ones, and timed warm reps.
    settle: int
    warm: int


#: Workloads whose inputs do not depend on the seed.
SEED_INDEPENDENT = frozenset({"figure-grid"})

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("continuous-kv-tiered", prepare_continuous,
                 run_continuous, check_continuous, CONTINUOUS_REQUESTS,
                 settle=1, warm=6),
        Workload("million-faults", prepare_faults, run_faults,
                 check_faults, FAULTS_REQUESTS, settle=3, warm=4),
        Workload("figure-grid", prepare_figures, run_figures,
                 check_figures, 199, settle=0, warm=1),
        Workload("fleet-chaos", prepare_fleet, run_fleet, check_fleet,
                 FLEET_REQUESTS, settle=0, warm=2),
    )}
