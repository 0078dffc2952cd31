"""Engines that must agree, compared as one report type.

Every single-server engine returns a :class:`ServingReport`, so one
differential check covers each group of engines that share a
contract: the FIFO loop, its Lindley-recursion array twin and the
continuous scheduler's FIFO-degenerate configuration; and the
degraded reference loop and the piecewise engine under a fault
scenario.  Within a group the timelines are equal to the last bit and
``summary()`` returns the same dict.
"""

import numpy as np
import pytest

from repro.core.estimator import LiaEstimator
from repro.faults.scenarios import get_scenario
from repro.models.workload import InferenceRequest
from repro.serving import (ServingReport, ServingSimulator,
                           WorkloadVector, arrivals_poisson)
from repro.serving.scheduler import SchedulerConfig

SHAPES = (InferenceRequest(1, 128, 16), InferenceRequest(1, 512, 32),
          InferenceRequest(8, 256, 32))

#: group -> (engine name, ``ServingSimulator.run`` keyword arguments)
ENGINE_GROUPS = {
    "fifo": (
        ("loop", {"vectorized": False}),
        ("vectorized", {"vectorized": True}),
        ("continuous-degenerate",
         {"scheduler": SchedulerConfig.fifo_degenerate()}),
    ),
    "degraded": (
        ("degraded-loop", {"vectorized": False}),
        ("piecewise", {"vectorized": True}),
    ),
}

WORKLOADS = ((1, 0.5, 0), (64, 0.2, 1), (300, 1.0, 2))


@pytest.mark.parametrize("n_requests,rate,seed", WORKLOADS)
@pytest.mark.parametrize("group,scenario", [
    ("fifo", None),
    ("degraded", "noisy-neighbor"),
    ("degraded", "gpu-pressure"),
    ("degraded", "pcie-flaky"),
])
def test_engines_agree_on_one_report(opt_30b, spr_a100, eval_config,
                                     group, scenario, n_requests, rate,
                                     seed):
    estimator = LiaEstimator(opt_30b, spr_a100, eval_config)
    workload = WorkloadVector.sample_mix(SHAPES, n_requests, seed=seed)
    arrivals = arrivals_poisson(n_requests, rate, seed=seed)
    fault = get_scenario(scenario) if scenario is not None else None
    reports = {
        name: ServingSimulator(estimator).run(
            workload.to_requests(), arrivals, scenario=fault, **kwargs)
        for name, kwargs in ENGINE_GROUPS[group]}

    (reference_name, reference), *others = reports.items()
    assert type(reference) is ServingReport
    for name, report in others:
        assert isinstance(report, ServingReport), name
        for column in ("arrivals", "starts", "finishes", "served_index",
                       "dropped_index"):
            assert np.array_equal(getattr(report, column),
                                  getattr(reference, column)), (
                f"{name} {column} diverged from {reference_name}")
        assert report.summary() == reference.summary(), name
        if fault is not None:
            assert report.stats.as_dict() == reference.stats.as_dict()
            assert report.dropped_reasons == reference.dropped_reasons
