"""Online serving simulation: a FIFO queue in front of one system.

Requests arrive at given timestamps (e.g. a Poisson process seeded for
reproducibility), execute one at a time at the latency the LIA
estimator predicts, and the report collects queueing delay, end-to-end
latency percentiles, and server utilization — the numbers a capacity
planner actually needs from the paper's latency results.

:class:`ServingReport` is the one report every single-server engine
returns, over timeline columns rather than per-request objects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.models.workload import InferenceRequest
from repro.telemetry.runtime import Telemetry
from repro.telemetry.runtime import current as current_telemetry

if TYPE_CHECKING:
    from repro.faults.spec import FaultScenario
    from repro.serving.degradation import FaultStats
    from repro.serving.scheduler import SchedulerConfig
    from repro.serving.vectorized import WorkloadVector


def validate_arrivals(arrivals: Sequence[float]) -> np.ndarray:
    """Check an arrival trace in one vectorized pass.

    Returns the trace as a float64 numpy array (the vectorized path
    consumes it directly; the loop path only validates).  Rejects NaN
    timestamps and any decreasing step — the previous
    ``list(arrivals) != sorted(arrivals)`` check was O(n log n) and
    silently order-dependent in the presence of NaN.
    """
    trace = np.asarray(arrivals, dtype=np.float64)
    if trace.ndim != 1:
        raise ConfigurationError(
            f"arrivals must be a flat sequence, got {trace.ndim} "
            "dimensions")
    if trace.size and bool(np.isnan(trace).any()):
        raise ConfigurationError("arrivals must not contain NaN")
    if trace.size > 1 and bool((trace[1:] < trace[:-1]).any()):
        raise ConfigurationError("arrivals must be non-decreasing")
    return trace


def arrivals_poisson(n_requests: int, rate_per_s: float,
                     seed: int = 0) -> List[float]:
    """Seeded Poisson arrival timestamps (``n_requests`` of them).

    One ``random.Random(seed)`` stream of exponential gaps — the
    exact generator :meth:`ServingSimulator.run_poisson` has always
    used, extracted so the degraded path, the ``serve`` CLI, and the
    serving benchmark all share one byte-identical arrival process.
    """
    if n_requests < 0:
        raise ConfigurationError(
            f"n_requests must be >= 0, got {n_requests}")
    if rate_per_s <= 0.0:
        raise ConfigurationError(
            f"rate_per_s must be positive, got {rate_per_s}")
    rng = random.Random(seed)
    arrivals = []
    clock = 0.0
    for __ in range(n_requests):
        clock += rng.expovariate(rate_per_s)
        arrivals.append(clock)
    return arrivals


@dataclass(frozen=True)
class ServedRequest:
    """Timeline of one request through the server."""

    request: InferenceRequest
    arrival: float
    start: float
    finish: float

    @property
    def queue_delay(self) -> float:
        return self.start - self.arrival

    @property
    def service_time(self) -> float:
        return self.finish - self.start

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass(frozen=True)
class DroppedRequest:
    """A request shed by admission control or unservable under faults."""

    request: InferenceRequest
    arrival: float
    reason: str


#: Above this many served requests, ``latency_percentile`` answers
#: from a streaming histogram (~2% relative error) instead of sorting
#: the latency vector exactly.
DEFAULT_EXACT_PERCENTILE_LIMIT = 262_144


def _left_sum(values: np.ndarray) -> float:
    """Sequential left fold of a fresh array, in place: the same float
    order as the loop's running ``+=`` (0.0 when nothing was served)."""
    if not values.size:
        return 0.0
    return float(np.add.accumulate(values, out=values)[-1])


class ServingReport:
    """Statistics of one serving run, over timeline columns.

    Every single-server engine returns this report: the FIFO loop and
    its Lindley-recursion array twin, the degraded loop and the
    piecewise engine, and — as :class:`ContinuousServingReport` — the
    continuous-batching scheduler.  ``workload`` / ``arrivals`` /
    ``starts`` / ``finishes`` cover the served requests in serving
    order, and every scalar folds floats in the loop's order, so
    engines that must agree compare bit for bit.  Percentiles are
    exact (one lazy ``np.sort``) up to ``exact_percentile_limit``
    served requests and answered from a streaming histogram beyond
    it; ``streaming=True`` forces the histogram, ``streaming=False``
    the exact sort.

    The drop channel records a fault-injected run.  With
    ``served_index`` the constructor's ``workload``/``arrivals`` are
    the *offered* stream and ``served_index`` picks the served
    requests out of it; ``dropped_index``/``dropped_reasons`` record
    the rest, ``stats`` the
    :class:`~repro.serving.degradation.FaultStats` and ``scenario``
    the injected scenario.  By default the channel is empty: every
    offered request was served.  A run that sheds every request is
    legal; its time statistics read 0.0 and ``latency_percentile``
    raises.

    ``served`` and ``dropped`` build ``ServedRequest`` /
    ``DroppedRequest`` lists on first access — an O(n) object build
    meant for small runs and tests, not the million-request path.
    """

    def __init__(self, workload: "WorkloadVector", arrivals: np.ndarray,
                 starts: np.ndarray, finishes: np.ndarray,
                 streaming: Optional[bool] = None,
                 exact_percentile_limit: int =
                 DEFAULT_EXACT_PERCENTILE_LIMIT, *,
                 served_index: Optional[np.ndarray] = None,
                 dropped_index: Optional[np.ndarray] = None,
                 dropped_reasons: Sequence[str] = (),
                 scenario: Optional["FaultScenario"] = None,
                 stats: Optional["FaultStats"] = None) -> None:
        if arrivals.size == 0:
            raise ConfigurationError("report needs at least one request")
        self.offered = workload
        self.offered_arrivals = arrivals
        self._served_index = served_index
        if served_index is not None:
            workload = workload.subset(served_index)
            arrivals = arrivals[served_index]
        if not (arrivals.size == starts.size == finishes.size
                == workload.n_requests):
            raise ConfigurationError(
                "timeline arrays and workload must have equal length")
        self.dropped_index = (np.empty(0, dtype=np.int64)
                              if dropped_index is None else dropped_index)
        if self.dropped_index.size != len(dropped_reasons):
            raise ConfigurationError(
                "dropped_index and dropped_reasons must have equal "
                "length")
        self.workload = workload
        self.arrivals = arrivals
        self.starts = starts
        self.finishes = finishes
        self.dropped_reasons = tuple(dropped_reasons)
        self.scenario = scenario
        self.stats = stats
        self._streaming = streaming
        self.exact_percentile_limit = exact_percentile_limit
        self._sorted_latencies: Optional[np.ndarray] = None
        self._histogram = None
        self._served: Optional[List[ServedRequest]] = None
        self._dropped: Optional[List[DroppedRequest]] = None
        self._makespan: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def n_served(self) -> int:
        return int(self.arrivals.size)

    @property
    def latencies(self) -> np.ndarray:
        return self.finishes - self.arrivals

    @property
    def queue_delays(self) -> np.ndarray:
        return self.starts - self.arrivals

    @property
    def service_times(self) -> np.ndarray:
        return self.finishes - self.starts

    @property
    def streaming_percentiles(self) -> bool:
        """Whether ``latency_percentile`` answers from the histogram."""
        if self._streaming is not None:
            return self._streaming
        return self.n_served > self.exact_percentile_limit

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        if self._makespan is None:
            self._makespan = (float(np.max(self.finishes))
                              if self.n_served else 0.0)
        return self._makespan

    @property
    def utilization(self) -> float:
        busy = _left_sum(self.service_times)
        return busy / self.makespan if self.makespan else 0.0

    @property
    def throughput_tokens_per_s(self) -> float:
        tokens = self.workload.total_generated_tokens
        return tokens / self.makespan if self.makespan else 0.0

    @property
    def mean_queue_delay(self) -> float:
        return _left_sum(self.queue_delays) / max(self.n_served, 1)

    def latency_percentile(self, fraction: float) -> float:
        """Latency at the given percentile, e.g. 0.5 or 0.95.

        Standard nearest-rank: the ``ceil(fraction * n)``-th smallest
        sample — exact below the size limit, a streaming-histogram
        estimate above it.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}")
        if not self.n_served:
            raise ConfigurationError(
                "no requests were served, so latency percentiles are "
                "undefined")
        if self.streaming_percentiles:
            return float(self._latency_histogram().quantile(fraction))
        if self._sorted_latencies is None:
            ordered = self.latencies  # fresh array; sort in place
            ordered.sort()
            self._sorted_latencies = ordered
        ordered = self._sorted_latencies
        rank = min(ordered.size,
                   max(1, math.ceil(fraction * ordered.size)))
        return float(ordered[rank - 1])

    def summary(self, percentiles: Sequence[float] = (0.50, 0.95, 0.99)
                ) -> dict:
        """Every standard statistic in one call.

        Values are the same bits the individual properties return.
        """
        result = {
            "utilization": self.utilization,
            "mean_queue_delay_s": self.mean_queue_delay,
            "makespan_s": self.makespan,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
        }
        for fraction in percentiles:
            result[f"p{round(fraction * 100)}"] = (
                self.latency_percentile(fraction))
        return result

    def _latency_histogram(self):
        if self._histogram is None:
            from repro.telemetry.metrics import StreamingHistogram

            histogram = StreamingHistogram("serving.latency_s")
            histogram.observe_array(self.latencies)
            self._histogram = histogram
        return self._histogram

    # ------------------------------------------------------------------
    # The drop channel
    # ------------------------------------------------------------------
    @property
    def served_index(self) -> np.ndarray:
        """Positions of the served requests in the offered stream."""
        if self._served_index is None:
            self._served_index = np.arange(self.n_served, dtype=np.int64)
        return self._served_index

    @property
    def scenario_name(self) -> str:
        return self.scenario.name if self.scenario is not None else ""

    @property
    def n_offered(self) -> int:
        return int(self.offered_arrivals.size)

    @property
    def drop_rate(self) -> float:
        return self.dropped_index.size / self.n_offered

    @property
    def dropped_arrivals(self) -> Optional[np.ndarray]:
        """Arrival timestamps of the dropped requests — the windowed
        time series' ``dropped`` channel; ``None`` on a fault-free
        run, which has no such channel."""
        if self.scenario is None:
            return None
        return self.offered_arrivals[self.dropped_index]

    @property
    def dropped(self) -> List[DroppedRequest]:
        if self._dropped is None:
            shapes = self.offered.shapes
            self._dropped = [
                DroppedRequest(request=shapes[code], arrival=arrival,
                               reason=reason)
                for code, arrival, reason in zip(
                    self.offered.codes[self.dropped_index].tolist(),
                    self.offered_arrivals[self.dropped_index].tolist(),
                    self.dropped_reasons)]
        return self._dropped

    def monitor(self, policy, **kwargs):
        """Evaluate an SLO policy over this run.

        Convenience wrapper for
        :func:`repro.telemetry.timeseries.monitor_report`; under a
        fault scenario every alert overlapping one of its fault
        windows is attributed to that
        :class:`~repro.faults.spec.FaultEvent`.
        """
        from repro.telemetry.timeseries import monitor_report

        return monitor_report(self, policy, **kwargs)

    # ------------------------------------------------------------------
    @property
    def served(self) -> List[ServedRequest]:
        if self._served is None:
            self._served = [
                ServedRequest(request=request, arrival=arrival,
                              start=start, finish=finish)
                for request, arrival, start, finish
                in self.iter_timeline()]
        return self._served

    def iter_timeline(self) -> Iterator[Tuple[InferenceRequest, float,
                                              float, float]]:
        """(shape, arrival, start, finish) rows without building
        ``ServedRequest`` objects."""
        shapes = self.workload.shapes
        for code, arrival, start, finish in zip(
                self.workload.codes.tolist(), self.arrivals.tolist(),
                self.starts.tolist(), self.finishes.tolist()):
            yield shapes[code], arrival, start, finish


def fifo_timeline(estimator: LiaEstimator,
                  requests: Sequence[InferenceRequest],
                  arrivals: Sequence[float],
                  telemetry: Optional[Telemetry] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, finishes) of the reference FIFO loop.

    One request at a time: ``start = max(arrival, free_at)``,
    ``finish = start + service`` — the float-op order
    :func:`~repro.serving.vectorized.lindley_timeline` reproduces bit
    for bit.  The estimator is pure in the request, so each distinct
    (B, L_in, L_out) shape is estimated once; with ``telemetry`` the
    ``serving.estimates`` counter tells computed from memoized.
    """
    starts: List[float] = []
    finishes: List[float] = []
    free_at = 0.0
    latency_by_shape: Dict[InferenceRequest, float] = {}
    for request, arrival in zip(requests, arrivals):
        start = max(arrival, free_at)
        service = latency_by_shape.get(request)
        if service is None:
            service = estimator.estimate(request).latency
            latency_by_shape[request] = service
            if telemetry is not None:
                telemetry.metrics.counter(
                    "serving.estimates", result="computed").inc()
        elif telemetry is not None:
            telemetry.metrics.counter(
                "serving.estimates", result="memoized").inc()
        finish = start + service
        starts.append(start)
        finishes.append(finish)
        free_at = finish
    return (np.array(starts, dtype=np.float64),
            np.array(finishes, dtype=np.float64))


def emit_report_telemetry(report: ServingReport, telemetry: Telemetry,
                          estimator: LiaEstimator, span_cap: int = -1,
                          component: str = "serving",
                          **labels: str) -> None:
    """Fold a finished run into ``telemetry``: the ``serving.*``
    histograms, counters and gauges, and per-request ``server`` /
    ``queue`` spans for the first ``span_cap`` served requests (every
    one when negative), the overflow counted in
    ``serving.spans_dropped``."""
    from repro.telemetry.bridge import (note_dropped_spans,
                                        vectorized_report_to_metrics,
                                        vectorized_report_to_spans)

    system = estimator.system.name
    model = estimator.spec.name
    vectorized_report_to_metrics(report, telemetry.metrics,
                                 system=system, model=model, **labels)
    spans, dropped = vectorized_report_to_spans(report, cap=span_cap)
    for span in spans:
        telemetry.tracer.add_span(span.name, span.track, span.start,
                                  span.finish, **span.args)
    if dropped:
        telemetry.metrics.counter(
            "serving.spans_dropped", system=system, model=model,
            **labels).inc(dropped)
        note_dropped_spans(telemetry, dropped, report.n_served,
                           component=component, cap=span_cap)


class ServingSimulator:
    """Single-server FIFO simulation driven by an estimator.

    With a :class:`Telemetry` attached (explicitly or via
    ``repro.telemetry.activate``), every run emits per-request
    ``server``/``queue`` spans in sim-seconds and feeds the
    ``serving.*`` queue-delay / service-time / latency histograms.
    """

    def __init__(self, estimator: LiaEstimator,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.estimator = estimator
        self._telemetry = telemetry
        #: Cross-run shape -> service-latency cache for the vectorized
        #: path.  The estimator is pure in the request (the same
        #: assumption the loop's per-run memoization makes), so the
        #: mapping never goes stale for a fixed estimator.
        self._service_latency_cache: Dict[InferenceRequest, float] = {}

    def _active_telemetry(self) -> Optional[Telemetry]:
        return (self._telemetry if self._telemetry is not None
                else current_telemetry())

    #: ``run(vectorized=None)`` switches to the vectorized engine at
    #: this many requests; below it the per-request loop is just as
    #: fast.
    AUTO_VECTORIZE_MIN_REQUESTS = 4096

    def run(self, requests: Union[Sequence[InferenceRequest],
                                  "WorkloadVector"],
            arrivals: Sequence[float],
            scenario: Optional["FaultScenario"] = None,
            vectorized: Optional[bool] = None,
            streaming: Optional[bool] = None,
            scheduler: Union[None, str, "SchedulerConfig"] = None
            ) -> ServingReport:
        """Serve ``requests`` arriving at ``arrivals`` (seconds).

        ``scheduler`` picks the serving policy: ``None`` / ``"fifo"``
        is the FIFO queue below; ``"continuous"`` (or a
        :class:`~repro.serving.scheduler.SchedulerConfig`) dispatches
        to the iteration-level continuous-batching engine of
        :mod:`repro.serving.scheduler`, which returns a
        :class:`~repro.serving.scheduler.ContinuousServingReport`
        (a :class:`ServingReport` subtype).  The continuous engine
        has no degraded or array variant yet, so combining it with
        ``scenario``/``vectorized``/``streaming`` is a
        :class:`ConfigurationError`, never a silent ignore.

        ``scenario`` switches to the fault-injected loop of
        :mod:`repro.serving.degradation`.  ``None`` — and any *idle*
        scenario (no fault windows, no admission bound) — takes the
        plain path below, so enabling the fault layer without faults
        is bit-for-bit identical to not having it.

        ``requests`` may be a columnar
        :class:`~repro.serving.vectorized.WorkloadVector` instead of a
        request list; those always take the vectorized path (their
        point is avoiding per-request Python objects).  ``vectorized``
        forces the engine choice; the default picks the loop for small
        runs and the Lindley-recursion array engine — bit-identical by
        contract — from :data:`AUTO_VECTORIZE_MIN_REQUESTS` up.  The
        same choice applies under a non-idle ``scenario``: large or
        columnar runs take the piecewise-Lindley engine of
        :mod:`repro.serving.piecewise`, ``vectorized=True`` forces it,
        and ``vectorized=False`` forces the reference loop.
        ``streaming`` forces (True) or forbids (False) streaming
        percentiles on every engine's report; left ``None``, the
        array engines switch to them above
        :data:`DEFAULT_EXACT_PERCENTILE_LIMIT` served requests and
        the loops stay exact.
        """
        from repro.serving.vectorized import WorkloadVector, run_vectorized

        if scheduler is not None and scheduler != "fifo":
            from repro.serving.scheduler import (ContinuousBatchScheduler,
                                                 SchedulerConfig)

            if scenario is not None and not scenario.idle:
                raise ConfigurationError(
                    "the continuous scheduler has no fault-injected "
                    "variant; run scenario= through the FIFO path")
            if vectorized or streaming is not None:
                raise ConfigurationError(
                    "vectorized=/streaming= apply to the FIFO "
                    "engines; the continuous scheduler is "
                    "iteration-level")
            if isinstance(scheduler, SchedulerConfig):
                scheduler_config: Optional[SchedulerConfig] = scheduler
            elif scheduler == "continuous":
                scheduler_config = None
            else:
                raise ConfigurationError(
                    f"scheduler must be None, 'fifo', 'continuous', "
                    f"or a SchedulerConfig, got {scheduler!r}")
            engine = ContinuousBatchScheduler(
                self.estimator, scheduler_config,
                telemetry=self._telemetry)
            return engine.run(requests, arrivals)

        columnar = isinstance(requests, WorkloadVector)
        n_requests = len(requests)
        if n_requests != len(arrivals):
            raise ConfigurationError(
                "requests and arrivals must have equal length")
        if vectorized is None:
            vectorized = (columnar
                          or n_requests >= self.AUTO_VECTORIZE_MIN_REQUESTS)
        if vectorized:
            workload = (requests if columnar
                        else WorkloadVector.from_requests(requests))
        elif columnar:
            requests = requests.to_requests()
        if scenario is not None and not scenario.idle:
            if vectorized:
                from repro.serving.piecewise import (
                    run_degraded_vectorized)

                return run_degraded_vectorized(
                    self, workload, arrivals, scenario,
                    streaming=streaming)
            from repro.serving.degradation import run_degraded

            return run_degraded(self, requests, arrivals, scenario,
                                streaming=streaming)
        if vectorized:
            # run_vectorized validates the trace itself — one pass,
            # not two.
            return run_vectorized(self, workload, arrivals,
                                  streaming=streaming)
        trace = validate_arrivals(arrivals)
        telemetry = self._active_telemetry()
        starts, finishes = fifo_timeline(self.estimator, requests,
                                         trace.tolist(), telemetry)
        report = ServingReport(WorkloadVector.from_requests(requests),
                               trace, starts, finishes,
                               streaming=bool(streaming))
        if telemetry is not None:
            emit_report_telemetry(report, telemetry, self.estimator)
        return report

    def run_poisson(self, requests: Union[Sequence[InferenceRequest],
                                          "WorkloadVector"],
                    rate_per_s: float, seed: int = 0,
                    scenario: Optional["FaultScenario"] = None,
                    vectorized: Optional[bool] = None,
                    streaming: Optional[bool] = None,
                    scheduler: Union[None, str,
                                     "SchedulerConfig"] = None
                    ) -> ServingReport:
        """Serve with Poisson arrivals at ``rate_per_s`` (seeded)."""
        arrivals = arrivals_poisson(len(requests), rate_per_s, seed=seed)
        return self.run(requests, arrivals, scenario=scenario,
                        vectorized=vectorized, streaming=streaming,
                        scheduler=scheduler)
