#!/usr/bin/env python3
"""Loop-vs-piecewise bit-identity sweep over every built-in preset.

CI runs this after the unit suite as a larger-n backstop: for each
scenario in :func:`repro.faults.scenarios.builtin_scenarios` plus the
admission-bounded presets below (a tight always-saturated queue and a
deep mostly-open one, so both the batched attempt-zero probe path and
the sequential drain fallback of the admission engine see thousands
of requests), serve the same Poisson workload through the reference
degraded loop and the piecewise-Lindley engine — single server and a
4-replica fleet — and fail (exit 1) on the first surface that is not
bit-identical: timelines, served/dropped index maps, drop reasons,
:class:`FaultStats`, and the derived statistics (percentiles, queue
delay, utilization).

The unit tests in ``tests/serving/test_piecewise.py`` pin the same
contract at small n; this sweep runs thousands of requests per preset
so segment-boundary and backlog-carry paths that only open up under
sustained load stay covered without slowing the tier-1 suite.

Usage::

    PYTHONPATH=src python scripts/check_degraded_parity.py \
        [--requests 2000] [--rate 2.0] [--replicas 4]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

MODEL = "opt-30b"
SYSTEM = "spr-a100"


def _admission_presets():
    """Admission-bounded sweep presets (not builtin scenarios): a
    tight queue that saturates at the sweep's arrival rate and a deep
    one that stays mostly open, covering the admission engine's
    sequential-drain and batched-probe regimes respectively."""
    from repro.faults.spec import (AdmissionPolicy, FaultEvent,
                                   FaultKind, FaultScenario,
                                   RetryPolicy)

    return {
        "admission-tight": FaultScenario(
            name="admission-tight", seed=7,
            admission=AdmissionPolicy(max_queue_depth=2,
                                      max_deferrals=2),
            retry=RetryPolicy(max_retries=3, timeout_s=0.05,
                              backoff_base_s=0.02,
                              backoff_factor=2.0)),
        "admission-deep": FaultScenario(
            name="admission-deep", seed=8,
            events=(
                FaultEvent(kind=FaultKind.PCIE_STALL, magnitude=0.02),
                FaultEvent(kind=FaultKind.GPU_HBM_PRESSURE,
                           start=60.0, duration=240.0, magnitude=0.3),
            ),
            retry=RetryPolicy(max_retries=3, timeout_s=0.05,
                              backoff_base_s=0.02,
                              backoff_factor=2.0),
            admission=AdmissionPolicy(max_queue_depth=64,
                                      max_deferrals=3)),
    }


def _mismatches(label: str, loop, vec) -> List[str]:
    """Bit-compare every surface of two single-server reports."""
    problems: List[str] = []

    def check(surface: str, ok: bool) -> None:
        if not ok:
            problems.append(f"{label}: {surface} diverged")

    for column in ("arrivals", "starts", "finishes", "served_index",
                   "dropped_index"):
        check(column, np.array_equal(getattr(vec, column),
                                     getattr(loop, column)))
    check("drop reasons", vec.dropped_reasons == loop.dropped_reasons)
    check("fault stats", vec.stats.as_dict() == loop.stats.as_dict())
    check("drop_rate", vec.drop_rate == loop.drop_rate)
    check("makespan", vec.makespan == loop.makespan)
    check("mean_queue_delay",
          vec.mean_queue_delay == loop.mean_queue_delay)
    if loop.n_served:
        check("utilization", vec.utilization == loop.utilization)
        for fraction in (0.5, 0.95, 0.99, 1.0):
            check(f"p{int(fraction * 100)}",
                  vec.latency_percentile(fraction)
                  == loop.latency_percentile(fraction))
    return problems


def _fleet_mismatches(label: str, loop, vec) -> List[str]:
    problems: List[str] = []

    def check(surface: str, ok: bool) -> None:
        if not ok:
            problems.append(f"{label}: {surface} diverged")

    check("merged starts",
          np.array_equal(loop.merged.starts, vec.merged.starts))
    check("merged finishes",
          np.array_equal(loop.merged.finishes, vec.merged.finishes))
    check("merged served_index",
          np.array_equal(loop.merged.served_index,
                         vec.merged.served_index))
    check("merged dropped_index",
          np.array_equal(loop.merged.dropped_index,
                         vec.merged.dropped_index))
    check("drop reasons",
          loop.merged.dropped_reasons == vec.merged.dropped_reasons)
    check("fault stats", loop.stats.as_dict() == vec.stats.as_dict())
    check("n_dropped", loop.n_dropped == vec.n_dropped)
    if loop.merged.n_served:
        for fraction in (0.5, 0.95, 1.0):
            check(f"p{int(fraction * 100)}",
                  loop.latency_percentile(fraction)
                  == vec.latency_percentile(fraction))
        check("mean_queue_delay",
              loop.mean_queue_delay == vec.mean_queue_delay)
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--rate", type=float, default=2.0,
                        help="Poisson arrival rate (req/s)")
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    from repro.core.config import LiaConfig
    from repro.core.estimator import LiaEstimator
    from repro.faults.scenarios import builtin_scenarios
    from repro.hardware.system import get_system
    from repro.models.workload import InferenceRequest
    from repro.models.zoo import get_model
    from repro.serving import (MultiReplicaSimulator, ServingSimulator,
                               WorkloadVector, arrivals_poisson,
                               run_degraded, run_degraded_vectorized)

    config = LiaConfig(enforce_host_capacity=False)
    estimator = LiaEstimator(get_model(MODEL), get_system(SYSTEM),
                             config)
    shapes = [InferenceRequest(8, 512, 64), InferenceRequest(4, 256, 32),
              InferenceRequest(1, 128, 16)]
    workload = WorkloadVector.sample_mix(shapes, args.requests,
                                         seed=args.seed)
    arrivals = arrivals_poisson(args.requests, args.rate,
                                seed=args.seed)
    requests = workload.to_requests()

    scenarios = {**builtin_scenarios(), **_admission_presets()}
    failures: List[str] = []
    for name, scenario in sorted(scenarios.items()):
        started = time.perf_counter()
        loop = run_degraded(ServingSimulator(estimator), requests,
                            arrivals, scenario)
        vec = run_degraded_vectorized(ServingSimulator(estimator),
                                      workload, arrivals, scenario)
        problems = _mismatches(name, loop, vec)

        fleet = MultiReplicaSimulator(estimator, args.replicas)
        loop_fleet = fleet.run(workload, arrivals, scenario=scenario,
                               vectorized=False)
        vec_fleet = fleet.run(workload, arrivals, scenario=scenario,
                              vectorized=True)
        problems += _fleet_mismatches(f"{name} (k={args.replicas})",
                                      loop_fleet, vec_fleet)

        elapsed = time.perf_counter() - started
        if problems:
            failures.extend(problems)
            print(f"FAIL {name}: {len(problems)} divergent surface(s)",
                  file=sys.stderr)
        else:
            print(f"ok   {name}: {args.requests} requests, "
                  f"{len(loop.dropped)} dropped, single + "
                  f"{args.replicas}-replica bit-identical "
                  f"({elapsed:.1f}s)")
    if failures:
        for message in failures:
            print(f"FAIL {message}", file=sys.stderr)
        return 1
    print(f"ok   all {len(scenarios)} presets bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
