"""Piecewise-Lindley vectorization of the degraded serving path.

The degraded loop in :mod:`repro.serving.degradation` is the same
FIFO recurrence the fault-free loop walks, plus three per-request
perturbations: a policy re-solve while capacity faults are active, a
stall penalty added to the finish, and (optionally) admission
deferral.  Fault windows are time-bounded *a priori*, so the timeline
splits into segments — :meth:`FaultInjector.regimes` — inside which
the performance signature and stall probability are constant.  Each
segment is then the plain array kernel again:

* service times become one gather per segment (plan per distinct
  shape under the segment's signature, scattered onto the block),
* stall penalties become a ``penalties`` column for the generalized
  :func:`~repro.serving.vectorized.lindley_timeline` (which replays
  the loop's two-addition ``(start + latency) + penalty`` fold), and
* queue backlog carries across segment boundaries through the
  kernel's ``free_at`` clamp.

**Speculation.** A request's *start* — not its arrival — picks its
signature, and backlog can push starts past the segment boundary.
Blocks are therefore computed speculatively under the entry segment's
signature and committed only up to the first request whose start (or
would-be start, for unservable drops) crosses the boundary; the
remainder re-enters the engine under the next segment.  The first
request of a block always starts inside the segment that was chosen
for it, so every commit makes progress.

**Bit-identity is the contract** (the same one PR 4 established for
the fault-free engine): timelines, ``FaultStats``, dropped records,
and the ``serving.*``/``faults.*`` telemetry rows match the reference
loop bit for bit.  All RNG draws key on ``(scenario seed, global
request index)`` exactly like the loop, and the two float
accumulators (``stall_seconds``, ``backoff_seconds``) fold per event
in request order.

Admission control probes the finishes of every previously admitted
request, but the *first* probe of each decision is pure: a request
whose queue-depth probe clears the bound at its raw arrival is
admitted at that arrival with no controller state touched.  Served
finishes are nondecreasing, so a speculative block batch-probes all
of its depths with two ``searchsorted`` passes (committed finishes
plus the block's own speculative finishes) and commits up to the
first request whose probe would defer or shed; only that request
re-enters the exact sequential
:meth:`~repro.serving.degradation.DegradationController.admit`
(deferral loop, backoff float folds, spans), and batching resumes
behind it.  The plain sequential kernel is retained as the
bit-identity reference the regression tests compare against.  The
≥20× benchmark floor applies to the admissionless piecewise path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import STALL_OUTCOME_CACHE, pinned_token
from repro.errors import ConfigurationError
from repro.faults.spec import FaultScenario
from repro.models.workload import InferenceRequest
from repro.serving.degradation import DegradationController, _ServicePlan
from repro.serving.simulator import (ServingReport, ServingSimulator,
                                     emit_report_telemetry,
                                     validate_arrivals)
from repro.serving.vectorized import (DEFAULT_SPAN_CAP, WorkloadVector,
                                      lindley_timeline)

#: Speculative block size inside finite segments.  Commits are exact,
#: so the cap only bounds wasted work when backlog pushes starts past
#: a segment boundary early in a block.
_BLOCK_CAP = 1 << 16

#: Starting speculative block size for the admission engine.  The cap
#: doubles after every block free of admission violations and shrinks
#: back toward the observed commit length when a probe would defer,
#: so wasted speculation stays proportional to committed work even
#: when the queue saturates and probes defer densely.
_ADMISSION_BLOCK_SEED = 32

_UNSERVABLE_REASON = "does not fit the degraded platform at B=1"
_SHED_REASON = "shed by admission control"


# ----------------------------------------------------------------------
# Pure stall-outcome replication
# ----------------------------------------------------------------------
def _stall_outcome(scenario: FaultScenario, probability: float,
                   index: int, n_chunks: int
                   ) -> Tuple[float, Tuple[tuple, ...]]:
    """(penalty, ops) of :meth:`DegradationController.transfer_penalty`
    for one request, with the side effects reified as an op list.

    Replays :meth:`FaultInjector.chunk_stalls` /
    :meth:`FaultInjector.retry_succeeds` draw for draw (same RNG
    keys, same number of draws) and the penalty accumulation add for
    add, so the returned penalty is the exact float the loop computes.
    Ops are applied in commit order by :func:`_apply_stall_ops`.
    """
    retry = scenario.retry
    if probability <= 0.0 or n_chunks == 0:
        return 0.0, ()
    rng = scenario.rng_for(index)
    stalled = tuple(chunk for chunk in range(n_chunks)
                    if rng.random() < probability)
    if not stalled:
        return 0.0, ()
    penalty = 0.0
    ops: List[tuple] = []
    for chunk in stalled:
        offset = penalty
        penalty += retry.timeout_s
        ops.append(("stall", chunk, offset))
        recovered = False
        for attempt in range(retry.max_retries):
            delay = retry.backoff_delay(attempt)
            offset = penalty
            penalty += delay
            ops.append(("retry", chunk, attempt, offset, delay))
            rng2 = scenario.rng_for(
                (index + 1) * 1_000_003 + chunk * 1_009 + attempt)
            if rng2.random() >= probability:
                recovered = True
                break
            penalty += retry.timeout_s
            ops.append(("retry_stall", chunk, attempt, offset, delay))
        if not recovered:
            ops.append(("failure", chunk))
    return penalty, tuple(ops)


def _cached_stall_outcome(controller: DegradationController,
                          probability: float, index: int,
                          n_chunks: int
                          ) -> Tuple[float, Tuple[tuple, ...]]:
    """:func:`_stall_outcome` through the process-global memo.

    The outcome is pure in its arguments (every draw keys on the
    scenario seed and the request index), so memoized values are
    bit-identical to recomputed ones; what the memo removes is the
    Mersenne-Twister seeding cost — several microseconds per request,
    the dominant term when a stall window is replayed more than once
    (benchmark reps, fleet sizing sweeps, what-if reruns).  Honors
    ``config.cache_enabled`` like every other analytic memo.

    The scenario enters the key as a pinned identity token rather than
    structurally: hashing a frozen ``FaultScenario`` walks its whole
    event tuple on every dict probe, which at 10⁶ lookups costs more
    than the MT seedings the memo saves.
    """
    scenario = controller.scenario
    if not controller.simulator.estimator.config.cache_enabled:
        return _stall_outcome(scenario, probability, index, n_chunks)
    key = (pinned_token(scenario), probability, index, n_chunks)
    return STALL_OUTCOME_CACHE.get_or_compute(
        key, lambda: _stall_outcome(scenario, probability, index,
                                    n_chunks))


def _apply_stall_ops(controller: DegradationController, index: int,
                     start: float, ops: Tuple[tuple, ...]) -> None:
    """Fold one request's stall ops into stats/counters/spans in the
    exact order ``transfer_penalty`` performs them."""
    stats = controller.stats
    timeout = controller.scenario.retry.timeout_s
    for op in ops:
        kind = op[0]
        if kind == "stall":
            __, chunk, offset = op
            stats.transfer_stalls += 1
            controller._count("faults.transfer.stalls")
            at = start + offset
            stats.stall_seconds += timeout
            controller._span(f"stall:req{index}:chunk{chunk}", at,
                             at + timeout, chunk=chunk)
        elif kind == "retry":
            __, chunk, attempt, offset, delay = op
            at = start + offset
            stats.transfer_retries += 1
            stats.backoff_seconds += delay
            controller._count("faults.transfer.retries")
            controller._count("faults.backoff_seconds", delay)
            controller._span(f"backoff:req{index}:chunk{chunk}", at,
                             at + delay, attempt=attempt)
        elif kind == "retry_stall":
            __, chunk, attempt, offset, delay = op
            at = start + offset
            stats.stall_seconds += timeout
            controller._span(f"stall:req{index}:chunk{chunk}",
                             at + delay, at + delay + timeout,
                             chunk=chunk, attempt=attempt)
        else:  # failure
            stats.transfer_failures += 1
            controller._count("faults.transfer.failures")


# ----------------------------------------------------------------------
# Per-signature plan tables
# ----------------------------------------------------------------------
class _PlanTable:
    """Columnar plan cache for one fault signature.

    One slot per workload shape, filled lazily with the codes a block
    actually contains — matching the loop, which only resolves shapes
    that arrive while the signature is active.
    """

    __slots__ = ("latency", "n_chunks", "ok", "shifted", "shrinks",
                 "filled")

    def __init__(self, n_shapes: int) -> None:
        self.latency = np.zeros(n_shapes)
        self.n_chunks = np.zeros(n_shapes, dtype=np.int64)
        self.ok = np.ones(n_shapes, dtype=bool)
        self.shifted = np.zeros(n_shapes, dtype=bool)
        self.shrinks = np.zeros(n_shapes, dtype=np.int64)
        self.filled = np.zeros(n_shapes, dtype=bool)

    def fill(self, controller: DegradationController,
             shapes: Sequence[InferenceRequest], signature,
             block_codes: np.ndarray, time: float) -> None:
        missing = np.unique(block_codes[~self.filled[block_codes]])
        for code in missing.tolist():
            plan = self._plan_for(controller, shapes[code], signature,
                                  time)
            if plan is None:
                self.ok[code] = False
            else:
                self.latency[code] = plan.latency
                self.n_chunks[code] = plan.n_chunks
                self.shifted[code] = plan.policy_shifted
                self.shrinks[code] = plan.shrinks
            self.filled[code] = True

    @staticmethod
    def _plan_for(controller: DegradationController,
                  shape: InferenceRequest, signature,
                  time: float) -> Optional[_ServicePlan]:
        # A shape too large for even the *base* platform raises
        # CapacityError here, exactly as the loop raises at that
        # shape's first arrival (the warm-up swallows it so it
        # surfaces per shape).
        if not signature:
            return controller._base_plan(shape)
        return controller._resolve_plan(shape, signature, time)


#: The old name of the one report, kept importable.
VectorizedDegradedReport = ServingReport


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def run_degraded_vectorized(simulator: ServingSimulator,
                            workload: WorkloadVector,
                            arrivals: Sequence[float],
                            scenario: FaultScenario,
                            streaming: Optional[bool] = None,
                            span_cap: int = DEFAULT_SPAN_CAP,
                            indices: Optional[Sequence[int]] = None,
                            quiet: bool = False
                            ) -> ServingReport:
    """Serve ``workload`` under ``scenario`` through the piecewise
    engine — bit-identical to
    :func:`repro.serving.degradation.run_degraded` on the same inputs
    (timelines, :class:`FaultStats`, drops, and telemetry rows).

    ``indices``/``quiet`` mirror the loop's parameters for the
    multi-replica dispatcher: global request indices keep RNG draws
    and span names replica-invariant, and ``quiet`` suppresses
    per-replica telemetry in favor of one merged fleet view.
    """
    trace = validate_arrivals(arrivals)
    if trace.size != workload.n_requests:
        raise ConfigurationError(
            "requests and arrivals must have equal length")
    idx: Optional[np.ndarray] = None
    if indices is not None:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != workload.n_requests:
            raise ConfigurationError(
                "indices and requests must have equal length")
    telemetry = None if quiet else simulator._active_telemetry()
    controller = DegradationController(simulator, scenario, telemetry)
    # Shapes the stream never uses are not estimated, like the loop.
    controller.warm_base_plans(
        [shape for shape, count
         in zip(workload.shapes, workload.counts().tolist()) if count])

    if scenario.admission.enabled:
        served_index, starts, finishes, dropped_index, reasons = (
            _run_admission_piecewise(controller, workload, trace, idx))
    else:
        served_index, starts, finishes, dropped_index, reasons = (
            _run_piecewise(controller, workload, trace, idx))

    report = ServingReport(
        workload, trace, starts, finishes, streaming=streaming,
        served_index=served_index, dropped_index=dropped_index,
        dropped_reasons=reasons, scenario=scenario,
        stats=controller.stats)
    if telemetry is not None:
        emit_report_telemetry(report, telemetry, simulator.estimator,
                              span_cap=span_cap,
                              component="serving.piecewise")
        telemetry.metrics.gauge(
            "faults.dropped_requests",
            scenario=scenario.name).set(int(dropped_index.size))
    return report


def _run_piecewise(controller: DegradationController,
                   workload: WorkloadVector, trace: np.ndarray,
                   idx: Optional[np.ndarray]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, List[str]]:
    """Mode A: admissionless piecewise-Lindley engine."""
    stats = controller.stats
    shapes = workload.shapes
    codes = workload.codes
    n = trace.size
    segments = controller.injector.regimes()
    seg_los = [segment[0] for segment in segments]
    tables: dict = {}

    served_starts = np.empty(n)
    served_finishes = np.empty(n)
    served_positions = np.empty(n, dtype=np.int64)
    n_served = 0
    dropped_positions: List[int] = []

    pos = 0
    free_at = 0.0
    while pos < n:
        arrival = trace[pos]
        t0 = arrival if arrival >= free_at else free_at
        lo, hi, signature, stall_p = segments[
            bisect_right(seg_los, t0) - 1]
        finite = math.isfinite(hi)
        if finite:
            block_end = int(np.searchsorted(trace, hi, side="left"))
            block_end = min(block_end, pos + _BLOCK_CAP)
        else:
            block_end = n
        block_end = max(block_end, pos + 1)
        block_codes = codes[pos:block_end]
        block_arrivals = trace[pos:block_end]

        table = tables.get(signature)
        if table is None:
            table = tables[signature] = _PlanTable(len(shapes))
        table.fill(controller, shapes, signature, block_codes, t0)

        ok = table.ok[block_codes]
        if finite and block_codes.size > 1:
            # Capacity bound: every served request advances the clock
            # by at least the cheapest servable latency, so at most
            # ``1 + (hi - t0) / min_latency`` kept requests can start
            # inside this segment.  Trimming the speculative block to
            # that many kept rows bounds past-the-boundary rework
            # (stall draws, kernel replay) to one block's overshoot.
            kept_probe = np.flatnonzero(ok)
            if kept_probe.size > 1:
                cheapest = float(
                    table.latency[block_codes[kept_probe]].min())
                if cheapest > 0.0:
                    capacity = 1 + int((hi - t0) / cheapest)
                    if kept_probe.size > capacity:
                        block_end = pos + int(kept_probe[capacity])
                        block_codes = codes[pos:block_end]
                        block_arrivals = trace[pos:block_end]
                        ok = ok[:block_end - pos]
        block_len = block_end - pos
        if ok.all():
            kept = None
            kept_arrivals = block_arrivals
            kept_latency = table.latency[block_codes]
            drop = np.empty(0, dtype=np.int64)
        else:
            kept = np.flatnonzero(ok)
            drop = np.flatnonzero(~ok)
            kept_arrivals = block_arrivals[kept]
            kept_latency = table.latency[block_codes[kept]]

        outcomes = None
        penalties = None
        if stall_p > 0.0 and kept_arrivals.size:
            kept_chunks = (table.n_chunks[block_codes] if kept is None
                           else table.n_chunks[block_codes[kept]])
            offsets = (np.arange(kept_arrivals.size, dtype=np.int64)
                       if kept is None else kept)
            request_ids = pos + offsets
            if idx is not None:
                request_ids = idx[request_ids]
            outcomes = [
                _cached_stall_outcome(controller, stall_p, int(rid),
                                      int(nch))
                for rid, nch in zip(request_ids.tolist(),
                                    kept_chunks.tolist())]
            penalties = np.fromiter((o[0] for o in outcomes),
                                    dtype=np.float64,
                                    count=len(outcomes))

        if kept_arrivals.size:
            kept_starts, kept_finishes = lindley_timeline(
                kept_arrivals, kept_latency, penalties=penalties,
                free_at=free_at)
        else:
            kept_starts = kept_finishes = np.empty(0)

        # First-violation cut: commit only the prefix whose starts
        # (or would-be starts of unservable drops) land in [lo, hi).
        if not finite:
            cut = block_len
            kept_cut = int(kept_arrivals.size)
            drop_cut = int(drop.size)
        else:
            kept_violation = int(np.searchsorted(kept_starts, hi,
                                                 side="left"))
            if kept is None:
                cut = min(kept_violation, block_len)
                kept_cut = cut
                drop_cut = 0
            else:
                kept_edge = (int(kept[kept_violation])
                             if kept_violation < kept.size
                             else block_len)
                previous = np.searchsorted(kept, drop) - 1
                if kept_finishes.size:
                    backlog = np.where(previous >= 0,
                                       kept_finishes[previous], free_at)
                else:
                    backlog = free_at
                probe = np.maximum(block_arrivals[drop], backlog)
                drop_violation = int(np.searchsorted(probe, hi,
                                                     side="left"))
                drop_edge = (int(drop[drop_violation])
                             if drop_violation < drop.size
                             else block_len)
                cut = min(kept_edge, drop_edge, block_len)
                kept_cut = int(np.searchsorted(kept, cut, side="left"))
                drop_cut = int(np.searchsorted(drop, cut, side="left"))

        # Commit the prefix.
        if kept_cut:
            committed = (np.arange(kept_cut, dtype=np.int64)
                         if kept is None else kept[:kept_cut])
            served_starts[n_served:n_served + kept_cut] = (
                kept_starts[:kept_cut])
            served_finishes[n_served:n_served + kept_cut] = (
                kept_finishes[:kept_cut])
            served_positions[n_served:n_served + kept_cut] = (
                pos + committed)
            n_served += kept_cut
            free_at = float(kept_finishes[kept_cut - 1])
            committed_codes = block_codes[committed]
            if signature:
                stats.policy_resolves += kept_cut
                controller._count("faults.policy_resolves", kept_cut)
                shifted = int(np.count_nonzero(
                    table.shifted[committed_codes]))
                if shifted:
                    stats.policy_shifts += shifted
                    controller._count("faults.policy_shifts", shifted)
                total_shrinks = int(table.shrinks[committed_codes].sum())
                if total_shrinks:
                    stats.batch_shrinks += total_shrinks
                    controller._count("faults.batch_shrinks",
                                      total_shrinks)
                stats.degraded_requests += kept_cut
            elif outcomes is not None:
                stats.degraded_requests += sum(
                    1 for outcome in outcomes[:kept_cut]
                    if outcome[0] > 0.0)
            need_spans = (controller.telemetry is not None and signature
                          and bool(table.shrinks[committed_codes].any()))
            if outcomes is not None or need_spans:
                shrink_counts = (table.shrinks[committed_codes].tolist()
                                 if need_spans else None)
                start_list = kept_starts[:kept_cut].tolist()
                global_ids = pos + committed
                if idx is not None:
                    global_ids = idx[global_ids]
                for j, request_id in enumerate(global_ids.tolist()):
                    if shrink_counts is not None and shrink_counts[j]:
                        controller._span(f"shrink:req{request_id}",
                                         start_list[j], start_list[j],
                                         halvings=shrink_counts[j])
                    if outcomes is not None and outcomes[j][1]:
                        _apply_stall_ops(controller, request_id,
                                         start_list[j], outcomes[j][1])
        if drop_cut:
            dropped_positions.extend(
                (pos + drop[:drop_cut]).tolist())
            stats.unservable += drop_cut
            controller._count("faults.unservable", drop_cut)
        pos += cut

    reasons = [_UNSERVABLE_REASON] * len(dropped_positions)
    return (served_positions[:n_served].copy(),
            served_starts[:n_served].copy(),
            served_finishes[:n_served].copy(),
            np.array(dropped_positions, dtype=np.int64), reasons)


def _run_admission_sequential(controller: DegradationController,
                              workload: WorkloadVector,
                              trace: np.ndarray,
                              idx: Optional[np.ndarray]
                              ) -> Tuple[np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray,
                                         List[str]]:
    """Mode B reference: admission-bounded, sequential exact kernel.

    Walks requests in order with the same controller the loop uses
    (identical stats, counters, and span emission) over precomputed
    segment tables, keeping the binary-search depth probe.  The
    production path is :func:`_run_admission_piecewise`, which batches
    the attempt-zero probes; this kernel is retained as the
    bit-identity reference the regression tests and the parity sweep
    compare against.
    """
    stats = controller.stats
    shapes = workload.shapes
    codes = workload.codes.tolist()
    arrivals = trace.tolist()
    n = trace.size
    segments = controller.injector.regimes()
    seg_los = [segment[0] for segment in segments]
    tables: dict = {}

    served_positions: List[int] = []
    starts_list: List[float] = []
    finishes: List[float] = []
    dropped_positions: List[int] = []
    reasons: List[str] = []
    free_at = 0.0
    probe_code = np.empty(1, dtype=np.int64)
    for position in range(n):
        arrival = arrivals[position]
        index = position if idx is None else int(idx[position])
        effective = controller.admit(arrival, index, finishes)
        if effective is None:
            dropped_positions.append(position)
            reasons.append(_SHED_REASON)
            continue
        start = effective if effective >= free_at else free_at
        lo, hi, signature, stall_p = segments[
            bisect_right(seg_los, start) - 1]
        table = tables.get(signature)
        if table is None:
            table = tables[signature] = _PlanTable(len(shapes))
        code = codes[position]
        if not table.filled[code]:
            probe_code[0] = code
            table.fill(controller, shapes, signature, probe_code, start)
        if not table.ok[code]:
            # plan_service accounts one unservable hit per occurrence.
            stats.unservable += 1
            controller._count("faults.unservable")
            dropped_positions.append(position)
            reasons.append(_UNSERVABLE_REASON)
            continue
        if signature:
            plan = _ServicePlan(
                latency=float(table.latency[code]),
                n_chunks=int(table.n_chunks[code]),
                shrinks=int(table.shrinks[code]), resolved=True,
                policy_shifted=bool(table.shifted[code]))
            controller._note_plan(plan, index, start)
        penalty = 0.0
        if stall_p > 0.0:
            penalty, ops = _cached_stall_outcome(
                controller, stall_p, index, int(table.n_chunks[code]))
            if ops:
                _apply_stall_ops(controller, index, start, ops)
        if signature or penalty > 0.0:
            stats.degraded_requests += 1
        finish = start + float(table.latency[code]) + penalty
        served_positions.append(position)
        starts_list.append(start)
        finishes.append(finish)
        free_at = finish
    return (np.array(served_positions, dtype=np.int64),
            np.array(starts_list, dtype=np.float64),
            np.array(finishes, dtype=np.float64),
            np.array(dropped_positions, dtype=np.int64), reasons)


def _run_admission_piecewise(controller: DegradationController,
                             workload: WorkloadVector,
                             trace: np.ndarray,
                             idx: Optional[np.ndarray]
                             ) -> Tuple[np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray,
                                        List[str]]:
    """Mode B: admission-bounded scenarios, piecewise engine.

    The attempt-zero admission probe is pure — a request whose
    queue-depth probe clears ``max_queue_depth`` at its raw arrival
    is admitted at that arrival and
    :meth:`~repro.serving.degradation.DegradationController.admit`
    touches no state.  Served finishes are nondecreasing, so a
    speculative block batch-probes every member's depth with two
    ``searchsorted`` passes: committed finishes against the block
    arrivals, plus the block's own speculative finishes (clamped to
    each member's served-before prefix, which holds the earliest
    finishes).  The block commits up to the first request whose probe
    would defer or shed; that request alone re-enters the exact
    sequential ``admit`` (deferral loop, stats, spans, backoff float
    folds), and batching resumes behind it.  Segment-boundary cuts,
    plan tables, stall outcomes, and the commit-order stats replay
    are the Mode A machinery, so timelines, :class:`FaultStats`,
    drops, and telemetry rows stay bit-identical to the reference
    loop and to :func:`_run_admission_sequential`.
    """
    stats = controller.stats
    shapes = workload.shapes
    codes = workload.codes
    codes_list = codes.tolist()
    arrivals_list = trace.tolist()
    n = trace.size
    max_depth = controller.scenario.admission.max_queue_depth
    segments = controller.injector.regimes()
    seg_los = [segment[0] for segment in segments]
    tables: dict = {}

    served_starts = np.empty(n)
    served_finishes = np.empty(n)
    served_positions = np.empty(n, dtype=np.int64)
    n_served = 0
    # The same finishes as a plain list: ``admit``'s binary search
    # over a list of Python floats is ~3x cheaper than over an
    # ndarray view (no per-comparison boxing), and the slow path is
    # exactly where that search dominates.
    finishes_list: List[float] = []
    dropped_positions: List[int] = []
    dropped_reasons: List[str] = []
    probe_code = np.empty(1, dtype=np.int64)
    pos = 0
    free_at = 0.0
    adm_cap = _ADMISSION_BLOCK_SEED
    seq_run = _ADMISSION_BLOCK_SEED

    def serve_slow(position: int) -> None:
        """One request through the exact sequential kernel body —
        used for the request at an admission violation (whose probe
        defers or sheds and therefore mutates controller state) and
        for saturated stretches where speculation cannot pay for
        itself."""
        nonlocal free_at, n_served
        arrival = arrivals_list[position]
        index = position if idx is None else int(idx[position])
        effective = controller.admit(arrival, index, finishes_list)
        if effective is None:
            dropped_positions.append(position)
            dropped_reasons.append(_SHED_REASON)
            return
        start = effective if effective >= free_at else free_at
        lo, hi, signature, stall_p = segments[
            bisect_right(seg_los, start) - 1]
        table = tables.get(signature)
        if table is None:
            table = tables[signature] = _PlanTable(len(shapes))
        code = codes_list[position]
        if not table.filled[code]:
            probe_code[0] = code
            table.fill(controller, shapes, signature, probe_code, start)
        if not table.ok[code]:
            stats.unservable += 1
            controller._count("faults.unservable")
            dropped_positions.append(position)
            dropped_reasons.append(_UNSERVABLE_REASON)
            return
        if signature:
            plan = _ServicePlan(
                latency=float(table.latency[code]),
                n_chunks=int(table.n_chunks[code]),
                shrinks=int(table.shrinks[code]), resolved=True,
                policy_shifted=bool(table.shifted[code]))
            controller._note_plan(plan, index, start)
        penalty = 0.0
        if stall_p > 0.0:
            penalty, ops = _cached_stall_outcome(
                controller, stall_p, index, int(table.n_chunks[code]))
            if ops:
                _apply_stall_ops(controller, index, start, ops)
        if signature or penalty > 0.0:
            stats.degraded_requests += 1
        finish = start + float(table.latency[code]) + penalty
        served_positions[n_served] = position
        served_starts[n_served] = start
        served_finishes[n_served] = finish
        finishes_list.append(finish)
        n_served += 1
        free_at = finish

    while pos < n:
        arrival = trace[pos]
        t0 = arrival if arrival >= free_at else free_at
        lo, hi, signature, stall_p = segments[
            bisect_right(seg_los, t0) - 1]
        finite = math.isfinite(hi)
        if finite:
            block_end = int(np.searchsorted(trace, hi, side="left"))
            block_end = min(block_end, pos + _BLOCK_CAP)
        else:
            block_end = n
        block_end = min(block_end, pos + adm_cap)
        block_end = max(block_end, pos + 1)
        block_codes = codes[pos:block_end]
        block_arrivals = trace[pos:block_end]

        table = tables.get(signature)
        if table is None:
            table = tables[signature] = _PlanTable(len(shapes))
        table.fill(controller, shapes, signature, block_codes, t0)

        ok = table.ok[block_codes]
        if finite and block_codes.size > 1:
            # Same capacity bound as Mode A: at most
            # ``1 + (hi - t0) / min_latency`` kept starts fit the
            # segment, so trim the speculation to that many rows.
            kept_probe = np.flatnonzero(ok)
            if kept_probe.size > 1:
                cheapest = float(
                    table.latency[block_codes[kept_probe]].min())
                if cheapest > 0.0:
                    capacity = 1 + int((hi - t0) / cheapest)
                    if kept_probe.size > capacity:
                        block_end = pos + int(kept_probe[capacity])
                        block_codes = codes[pos:block_end]
                        block_arrivals = trace[pos:block_end]
                        ok = ok[:block_end - pos]
        block_len = block_end - pos
        if ok.all():
            kept = None
            kept_arrivals = block_arrivals
            kept_latency = table.latency[block_codes]
            drop = np.empty(0, dtype=np.int64)
        else:
            kept = np.flatnonzero(ok)
            drop = np.flatnonzero(~ok)
            kept_arrivals = block_arrivals[kept]
            kept_latency = table.latency[block_codes[kept]]

        outcomes = None
        penalties = None
        if stall_p > 0.0 and kept_arrivals.size:
            kept_chunks = (table.n_chunks[block_codes] if kept is None
                           else table.n_chunks[block_codes[kept]])
            offsets = (np.arange(kept_arrivals.size, dtype=np.int64)
                       if kept is None else kept)
            request_ids = pos + offsets
            if idx is not None:
                request_ids = idx[request_ids]
            outcomes = [
                _cached_stall_outcome(controller, stall_p, int(rid),
                                      int(nch))
                for rid, nch in zip(request_ids.tolist(),
                                    kept_chunks.tolist())]
            penalties = np.fromiter((o[0] for o in outcomes),
                                    dtype=np.float64,
                                    count=len(outcomes))

        if kept_arrivals.size:
            kept_starts, kept_finishes = lindley_timeline(
                kept_arrivals, kept_latency, penalties=penalties,
                free_at=free_at)
        else:
            kept_starts = kept_finishes = np.empty(0)

        # Batched attempt-zero depth probes.  For block member i the
        # probe counts admitted-but-unfinished requests at arrival_i:
        # committed finishes (one global searchsorted) plus the
        # block's own speculative kept finishes before i.  The local
        # count is clamped to the served-before prefix, which holds
        # the earliest finishes, so the clamp is exact even when a
        # later finish ties the arrival.
        if kept is None:
            served_before = np.arange(block_len, dtype=np.int64)
        else:
            ok_counts = ok.astype(np.int64)
            served_before = np.cumsum(ok_counts) - ok_counts
        local = np.minimum(
            np.searchsorted(kept_finishes, block_arrivals,
                            side="right"),
            served_before)
        committed_leq = np.searchsorted(served_finishes[:n_served],
                                        block_arrivals, side="right")
        depth = (n_served + served_before) - (committed_leq + local)
        violations = np.flatnonzero(depth >= max_depth)
        adm_edge = int(violations[0]) if violations.size else block_len

        # First-violation cut: Mode A's segment cut, then the
        # admission edge on top.
        if not finite:
            seg_cut = block_len
        else:
            kept_violation = int(np.searchsorted(kept_starts, hi,
                                                 side="left"))
            if kept is None:
                seg_cut = min(kept_violation, block_len)
            else:
                kept_edge = (int(kept[kept_violation])
                             if kept_violation < kept.size
                             else block_len)
                previous = np.searchsorted(kept, drop) - 1
                if kept_finishes.size:
                    backlog = np.where(previous >= 0,
                                       kept_finishes[previous], free_at)
                else:
                    backlog = free_at
                probe = np.maximum(block_arrivals[drop], backlog)
                drop_violation = int(np.searchsorted(probe, hi,
                                                     side="left"))
                drop_edge = (int(drop[drop_violation])
                             if drop_violation < drop.size
                             else block_len)
                seg_cut = min(kept_edge, drop_edge, block_len)
        cut = min(seg_cut, adm_edge)
        if kept is None:
            kept_cut = cut
            drop_cut = 0
        else:
            kept_cut = int(np.searchsorted(kept, cut, side="left"))
            drop_cut = int(np.searchsorted(drop, cut, side="left"))

        # Commit the prefix (Mode A's commit-order stats replay).
        if kept_cut:
            committed = (np.arange(kept_cut, dtype=np.int64)
                         if kept is None else kept[:kept_cut])
            served_starts[n_served:n_served + kept_cut] = (
                kept_starts[:kept_cut])
            served_finishes[n_served:n_served + kept_cut] = (
                kept_finishes[:kept_cut])
            served_positions[n_served:n_served + kept_cut] = (
                pos + committed)
            n_served += kept_cut
            finishes_list.extend(kept_finishes[:kept_cut].tolist())
            free_at = float(kept_finishes[kept_cut - 1])
            committed_codes = block_codes[committed]
            if signature:
                stats.policy_resolves += kept_cut
                controller._count("faults.policy_resolves", kept_cut)
                shifted = int(np.count_nonzero(
                    table.shifted[committed_codes]))
                if shifted:
                    stats.policy_shifts += shifted
                    controller._count("faults.policy_shifts", shifted)
                total_shrinks = int(table.shrinks[committed_codes].sum())
                if total_shrinks:
                    stats.batch_shrinks += total_shrinks
                    controller._count("faults.batch_shrinks",
                                      total_shrinks)
                stats.degraded_requests += kept_cut
            elif outcomes is not None:
                stats.degraded_requests += sum(
                    1 for outcome in outcomes[:kept_cut]
                    if outcome[0] > 0.0)
            need_spans = (controller.telemetry is not None and signature
                          and bool(table.shrinks[committed_codes].any()))
            if outcomes is not None or need_spans:
                shrink_counts = (table.shrinks[committed_codes].tolist()
                                 if need_spans else None)
                start_list = kept_starts[:kept_cut].tolist()
                global_ids = pos + committed
                if idx is not None:
                    global_ids = idx[global_ids]
                for j, request_id in enumerate(global_ids.tolist()):
                    if shrink_counts is not None and shrink_counts[j]:
                        controller._span(f"shrink:req{request_id}",
                                         start_list[j], start_list[j],
                                         halvings=shrink_counts[j])
                    if outcomes is not None and outcomes[j][1]:
                        _apply_stall_ops(controller, request_id,
                                         start_list[j], outcomes[j][1])
        if drop_cut:
            dropped_positions.extend(
                (pos + drop[:drop_cut]).tolist())
            dropped_reasons.extend([_UNSERVABLE_REASON] * drop_cut)
            stats.unservable += drop_cut
            controller._count("faults.unservable", drop_cut)
        pos += cut

        if adm_edge <= seg_cut and adm_edge < block_len:
            # The cut landed on an admission violation: that request's
            # probe defers or sheds, so it takes the exact sequential
            # path before batching resumes behind it.
            serve_slow(pos)
            pos += 1
            if cut < _ADMISSION_BLOCK_SEED:
                # Speculation did not pay for itself — the queue is
                # saturated and probes defer densely.  Drain a stretch
                # sequentially, doubling the stretch while saturation
                # persists, so the engine degrades to the sequential
                # kernel plus a vanishing probing overhead instead of
                # re-speculating per committed request.
                stop = min(n, pos + seq_run)
                while pos < stop:
                    serve_slow(pos)
                    pos += 1
                seq_run = min(2 * seq_run, _BLOCK_CAP)
                adm_cap = _ADMISSION_BLOCK_SEED
            else:
                seq_run = _ADMISSION_BLOCK_SEED
                adm_cap = max(_ADMISSION_BLOCK_SEED, 2 * cut)
        else:
            seq_run = _ADMISSION_BLOCK_SEED
            adm_cap = min(2 * adm_cap, _BLOCK_CAP)

    return (served_positions[:n_served].copy(),
            served_starts[:n_served].copy(),
            served_finishes[:n_served].copy(),
            np.array(dropped_positions, dtype=np.int64),
            dropped_reasons)
