"""Host-time spans around the program's layer functions, from outside.

:class:`LayerTracer` replaces every module attribute bound to a timed
function — not only the defining module's: ``optimal_policy`` is
bound by name in ten modules and ``layer_latency`` in seven —
with a wrapper that records one span per call.  Spans stay in memory
and are written once, as a Chrome trace, by :meth:`write_chrome`.

A span's self time is its duration minus the part of its interval its
child spans cover, with time that pool threads share split evenly
among them (see :meth:`LayerTracer.self_times`).  A span's parent is
the innermost open span on its thread; work a sweep hands to pool
threads takes the innermost open ``experiments.runner`` span as its
parent, so a threaded sweep's points still land under the sweep that
caused them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> (module, attribute path) of every function timed as that
#: layer.  A dotted path names a class attribute (method or property).
LAYER_FUNCTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.latency": (("repro.core.latency", "layer_latency"),),
    "core.optimizer": (("repro.core.optimizer", "optimal_policy"),),
    "core.estimator": (("repro.core.estimator", "LiaEstimator.estimate"),),
    "serving.scheduler.profile_build": (
        ("repro.serving.scheduler", "StepProfile.__init__"),),
    "serving.scheduler.loop": (
        ("repro.serving.scheduler",
         "ContinuousBatchScheduler._run_iterative"),),
    "serving.piecewise": (
        ("repro.serving.piecewise", "run_degraded_vectorized"),),
    "serving.fleet": (("repro.serving.fleet", "FleetSimulator.run"),),
    "experiments.runner": (("repro.experiments.runner", "run_sweep"),),
    "telemetry.timeseries": tuple(
        ("repro.telemetry.timeseries", name)
        for name in ("compute_timeseries", "timeseries_from_report",
                     "occupancy_timeseries", "fleet_timeseries",
                     "evaluate_slo", "attribute_alerts",
                     "monitor_report")),
}

#: Report classes whose public methods and properties make up the
#: ``serving.report`` layer (statistics folded from a finished run).
REPORT_CLASSES = (("repro.serving.simulator", "ServingReport"),
                  ("repro.serving.vectorized", "VectorizedServingReport"),
                  ("repro.serving.piecewise", "VectorizedDegradedReport"),
                  ("repro.serving.scheduler", "ContinuousServingReport"),
                  ("repro.serving.fleet", "FleetReport"))


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    layer: str
    name: str
    thread: int
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def import_all(package: str = "repro") -> None:
    """Import every submodule, so every by-name binding exists."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


class LayerTracer:
    """Records a span per call into the layer functions it wraps."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Points handed to ``run_sweep`` (its span carries no args).
        self.sweep_points = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sweeps: List[int] = []
        #: (opens, span id) in the order the clock was read, so equal
        #: timestamps still replay in the order they happened.
        self._events: List[Tuple[bool, int]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else (
                self._sweeps[-1] if self._sweeps else None)
            span = Span(len(self.spans), parent, layer, name,
                        threading.get_ident(), time.perf_counter_ns())
            self.spans.append(span)
            self._events.append((True, span.span_id))
            if layer == "experiments.runner":
                self._sweeps.append(span.span_id)
        stack.append(span.span_id)
        return span

    def close(self, span: Span) -> None:
        self._stack().pop()
        with self._lock:
            span.end_ns = time.perf_counter_ns()
            self._events.append((False, span.span_id))
            if span.layer == "experiments.runner":
                self._sweeps.remove(span.span_id)

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        """Record one span around a block (the benchmark's root span)."""
        span = self.open(layer, name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        counts_points = layer == "experiments.runner"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if counts_points:
                # run_sweep(fn, points, ...) lists its points first
                # thing anyway; listing them here lets us count them.
                points = list(args[1])
                args = (args[0], points) + args[2:]
                tracer.sweep_points += len(points)
            span = tracer.open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    # -- installing wrappers ---------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, layer: str, module_name: str,
                       attr: str) -> None:
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(layer, f"{module_name}.{attr}", original)
        # Every module that bound the function by name gets the wrapper.
        for module, name in _module_bindings(original):
            self._set(module, name, traced)

    def _wrap_class_attr(self, layer: str, cls: type, attr: str) -> None:
        value = cls.__dict__[attr]
        label = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        if isinstance(value, property):
            self._set(cls, attr, property(self.wrap(layer, label,
                                                    value.fget)))
        elif inspect.isfunction(value):
            self._set(cls, attr, self.wrap(layer, label, value))

    def install(self) -> None:
        """Wrap every binding of every timed function."""
        import_all()
        for layer, targets in LAYER_FUNCTIONS.items():
            for module_name, path in targets:
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    cls = getattr(sys.modules[module_name], owner_name)
                    self._wrap_class_attr(layer, cls, attr)
                else:
                    self._wrap_function(layer, module_name, attr)
        for module_name, class_name in REPORT_CLASSES:
            cls = getattr(sys.modules[module_name], class_name)
            for attr in list(cls.__dict__):
                if not attr.startswith("_"):
                    self._wrap_class_attr("serving.report", cls, attr)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span, in seconds: its duration minus the part of its
        interval its children cover.

        Sweep points run on pool threads at the same time, so a plain
        per-span subtraction would count each GIL-shared second once
        per thread.  Instead every instant is split equally among the
        spans running leaf work then (open, with no open child), which
        is the plain subtraction when one thread runs, and makes the
        self times of all spans sum to the root span's duration.
        """
        self_ns = [0.0] * len(self.spans)
        open_children = [0] * len(self.spans)
        is_open = [False] * len(self.spans)
        active: set = set()
        previous = self.spans[0].start_ns if self.spans else 0
        for starts, span_id in self._events:
            span = self.spans[span_id]
            when = span.start_ns if starts else span.end_ns
            if active and when > previous:
                share = (when - previous) / len(active)
                for running in active:
                    self_ns[running] += share
            previous = when
            parent = span.parent_id
            if starts:
                is_open[span_id] = True
                active.add(span_id)
                if parent is not None and is_open[parent]:
                    open_children[parent] += 1
                    active.discard(parent)
            else:
                is_open[span_id] = False
                active.discard(span_id)
                if parent is not None and is_open[parent]:
                    open_children[parent] -= 1
                    if not open_children[parent]:
                        active.add(parent)
        return [value / 1e9 for value in self_ns]

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, inclusive seconds of its outermost spans
        (a layer calling itself is not counted twice) and self
        seconds."""
        by_id = {span.span_id: span for span in self.spans}
        totals: Dict[str, Dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = totals.setdefault(span.layer, {"calls": 0, "total_s": 0.0,
                                                 "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            parent = by_id.get(span.parent_id) if span.parent_id is not None \
                else None
            nested = False
            while parent is not None:
                if parent.layer == span.layer:
                    nested = True
                    break
                parent = by_id.get(parent.parent_id) \
                    if parent.parent_id is not None else None
            if not nested:
                row["total_s"] += span.duration_ns / 1e9
        return totals

    def write_chrome(self, path: str,
                     metadata: Optional[Dict[str, Any]] = None) -> None:
        """All spans as Chrome trace-event JSON (open in Perfetto)."""
        base = min((span.start_ns for span in self.spans), default=0)
        events: List[Dict[str, Any]] = [
            {"name": span.name, "cat": span.layer, "ph": "X", "pid": 1,
             "tid": span.thread, "ts": (span.start_ns - base) / 1e3,
             "dur": span.duration_ns / 1e3,
             "args": {"span_id": span.span_id, "parent": span.parent_id}}
            for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "metadata": metadata or {}}, handle)


def _module_bindings(fn: Callable) -> List[Tuple[Any, str]]:
    """Every ``(module, attribute)`` bound to ``fn``."""
    return [(module, name)
            for module in list(sys.modules.values())
            for name, value in list(getattr(module, "__dict__", {}).items())
            if value is fn]


def bindings(fn: Callable) -> List[str]:
    """``module.attr`` names bound to ``fn`` (checks the wrapping)."""
    return [f"{module.__name__}.{name}"
            for module, name in _module_bindings(fn)]
