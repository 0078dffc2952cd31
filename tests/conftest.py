"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import LiaConfig
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


@pytest.fixture
def opt_175b():
    return get_model("opt-175b")


@pytest.fixture
def opt_30b():
    return get_model("opt-30b")


@pytest.fixture
def tiny_spec():
    return get_model("opt-tiny")


@pytest.fixture
def spr_a100():
    return get_system("spr-a100")


@pytest.fixture
def spr_h100():
    return get_system("spr-h100")


@pytest.fixture
def gnr_a100():
    return get_system("gnr-a100")


@pytest.fixture
def eval_config():
    """Paper-style configuration: starred points allowed beyond the
    512 GB testbed."""
    return LiaConfig(enforce_host_capacity=False)


@pytest.fixture
def online_request():
    return InferenceRequest(batch_size=1, input_len=256, output_len=32)


@pytest.fixture
def offline_request():
    return InferenceRequest(batch_size=64, input_len=256, output_len=32)


@pytest.fixture
def engine_calls(monkeypatch):
    """The serving engines each run reached, in call order.

    Spies on the entry points ``ServingSimulator.run`` and
    ``MultiReplicaSimulator.run`` dispatch to, so dispatch tests
    observe which engine ran instead of inferring it from the report
    type (every engine returns the same report).
    """
    import repro.serving.degradation as degradation
    import repro.serving.piecewise as piecewise
    import repro.serving.simulator as simulator
    import repro.serving.vectorized as vectorized

    calls = []
    for module, name, label in (
            (simulator, "fifo_timeline", "loop"),
            (vectorized, "run_vectorized", "vectorized"),
            (degradation, "run_degraded", "degraded-loop"),
            (piecewise, "run_degraded_vectorized", "piecewise")):
        def spy(*args, _original=getattr(module, name), _label=label,
                **kwargs):
            calls.append(_label)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls
