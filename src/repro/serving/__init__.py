"""Serving layer built on the LIA estimators.

The paper evaluates fixed (B, L_in, L_out) points; production use
needs the two wrappers this package provides:

* :mod:`repro.serving.batcher` — pack a corpus of variable-length
  requests into memory-feasible batches for offline (throughput-
  driven) inference.
* :mod:`repro.serving.simulator` — replay an online arrival trace
  through a FIFO-queued single-system server, reporting latency
  percentiles and utilization in a :class:`ServingReport`: timeline
  columns plus an optional drop channel (shed requests, fault
  counters, scenario).  Every single-server engine below returns
  this one report; the continuous scheduler's subtype only adds its
  batching fields, and the fleet engines wrap it.
* :mod:`repro.serving.planner` — pick the cheapest system that meets
  a latency SLO for a workload (the §7.6/§7.8 decision problem as an
  API).
* :mod:`repro.serving.vectorized` — the million-request array
  engine: exact Lindley-recursion timelines over columnar workloads,
  bit-identical to the loop path.
* :mod:`repro.serving.piecewise` — the same contract under fault
  scenarios: piecewise-Lindley segments over the fault regimes,
  bit-identical to the degraded reference loop.
* :mod:`repro.serving.replicas` — k-replica scale-out (round-robin /
  least-loaded dispatch, optionally under a fault scenario) and
  SLO-driven fleet sizing.
* :mod:`repro.serving.fleet` — the control plane under test: replica
  chaos, circuit-breaker failover with re-dispatch/hedging, and a
  reactive autoscaler driven by the workload-trace layer.
* :mod:`repro.serving.scheduler` — iteration-level continuous
  batching (ORCA-style): requests join/leave the running batch each
  decode step, KV bytes are admitted against tiered HBM/DDR/CXL
  capacity, and Eq. (1) is re-solved as the batch composition
  changes.
"""

from repro.serving.batcher import Batch, pack_requests
from repro.serving.degradation import (DegradedServingReport,
                                       FaultStats, run_degraded)
from repro.serving.fleet import (AutoscalerPolicy, ChaosStats,
                                 FleetPreset, FleetReport,
                                 FleetSimulator, builtin_fleet_presets,
                                 get_fleet_preset)
from repro.serving.piecewise import (VectorizedDegradedReport,
                                     run_degraded_vectorized)
from repro.serving.planner import (PlanChoice, ReplicaPlan,
                                   choose_system, plan_replicas)
from repro.serving.replicas import (DegradedScaleOutReport,
                                    MultiReplicaSimulator,
                                    ScaleOutReport, replicas_needed)
from repro.serving.scheduler import (MIXED_SHAPES,
                                     ContinuousBatchScheduler,
                                     ContinuousServingReport,
                                     SchedulerConfig, StepProfile,
                                     run_continuous_fleet)
from repro.serving.simulator import (DroppedRequest, ServedRequest,
                                     ServingReport, ServingSimulator,
                                     arrivals_poisson, validate_arrivals)
from repro.serving.vectorized import (VectorizedServingReport,
                                      WorkloadVector, lindley_timeline,
                                      run_vectorized)

__all__ = [
    "AutoscalerPolicy",
    "ChaosStats",
    "FleetPreset",
    "FleetReport",
    "FleetSimulator",
    "builtin_fleet_presets",
    "get_fleet_preset",
    "DegradedScaleOutReport",
    "DegradedServingReport",
    "DroppedRequest",
    "FaultStats",
    "VectorizedDegradedReport",
    "run_degraded",
    "run_degraded_vectorized",
    "Batch",
    "pack_requests",
    "ServedRequest",
    "ServingReport",
    "ServingSimulator",
    "arrivals_poisson",
    "validate_arrivals",
    "PlanChoice",
    "ReplicaPlan",
    "choose_system",
    "plan_replicas",
    "MultiReplicaSimulator",
    "ScaleOutReport",
    "replicas_needed",
    "VectorizedServingReport",
    "WorkloadVector",
    "lindley_timeline",
    "run_vectorized",
    "MIXED_SHAPES",
    "ContinuousBatchScheduler",
    "ContinuousServingReport",
    "SchedulerConfig",
    "StepProfile",
    "run_continuous_fleet",
]
