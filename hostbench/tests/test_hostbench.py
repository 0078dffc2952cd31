"""Self-tests of the benchmark at small sizes.

    PYTHONPATH=src python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HOSTBENCH)
sys.path.insert(0, HOSTBENCH)

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SMALL_FIGURES = {"fig09": {"batch_sizes": (1, 64), "input_lens": (32, 512)},
                 "fig10": {"output_lens": (32,)},
                 "fig11": {"batch_sizes": (64,), "output_lens": (32,)}}


def small_inputs(name: str, seed: int):
    if name == "figure-grid":
        return workloads.prepare_figures(seed, **SMALL_FIGURES)
    prepare = workloads.WORKLOADS[name].prepare
    return prepare(seed, n_requests=60 if name == "continuous-kv-tiered"
                   else 3000)


def outcome(name: str, inputs):
    workload = workloads.WORKLOADS[name]
    return workload.check(inputs, workload.run(inputs))


@pytest.fixture(autouse=True)
def cold_caches():
    from repro.core.cache import clear_caches

    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_simulated_metrics_repeat_exactly(name):
    first = outcome(name, small_inputs(name, 3))
    # Fresh inputs from the same seed, caches now warm.
    second = outcome(name, small_inputs(name, 3))
    assert second.fingerprint == first.fingerprint
    assert second.sim == first.sim
    assert second.attempted == first.attempted
    assert all(value > 0 for value in first.sim.values())


@pytest.mark.parametrize("name", sorted(set(workloads.WORKLOADS)
                                        - workloads.SEED_INDEPENDENT))
def test_seed_drives_the_inputs(name):
    assert (outcome(name, small_inputs(name, 3)).fingerprint
            != outcome(name, small_inputs(name, 4)).fingerprint)


def test_continuous_workload_demotes_kv():
    result = outcome("continuous-kv-tiered",
                     workloads.prepare_continuous(0, n_requests=120))
    assert result.layer_counts["kv_demotions"] > 0


def test_caches_read_zero_at_cold_start():
    """A fresh sample's cold run starts from empty caches."""
    done = subprocess.run(
        [sys.executable, os.path.join(HOSTBENCH, "child.py"),
         "--workload", "million-faults", "--seed", "0"],
        cwd=ROOT, env=bench._child_env(ROOT), capture_output=True,
        text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["caches_zero_at_cold"] is True
    assert result["warm_s"] == [] and result["cold_s"] > 0.0


def test_warm_caches_fail_the_cold_check():
    from repro.core.cache import cache_stats

    workloads.run_faults(small_inputs("million-faults", 0))
    assert any(row["hits"] or row["misses"] for row in cache_stats())
    record = {"fingerprint": "f", "sim": {"x": 1.0}, "attempted": 5}
    checker = bench.Checker(dict(record))
    checker.sample({"pid": 1, "caches_zero_at_cold": False,
                    "outcomes": [record]}, "", 5)
    assert checker.failed == 5


def test_every_seed_is_checked_against_a_committed_entry():
    expected = bench._load_expected()
    for name in workloads.WORKLOADS:
        for seed in (0, 37, 137, 10**6 + 5):
            entry = bench.expected_entry(expected, name, seed)
            assert entry is not None
            assert entry == bench.expected_entry(expected, name,
                                                 bench.input_seed(seed))
    record = {"fingerprint": "f", "sim": {"x": 1.0}, "attempted": 5}
    checker = bench.Checker(None)
    checker.sample({"pid": 1, "caches_zero_at_cold": True,
                    "outcomes": [record]}, "", 5)
    assert (checker.attempted, checker.failed) == (5, 5)


def test_checker_counts_differing_and_missing_runs():
    reference = {"fingerprint": "a", "sim": {"x": 1.0}, "attempted": 10}
    checker = bench.Checker(dict(reference))
    differing = dict(reference, sim={"x": 1.0000000000000002})
    checker.sample({"pid": 1, "caches_zero_at_cold": True,
                    "outcomes": [dict(reference), differing]}, "", 10)
    assert (checker.attempted, checker.failed) == (20, 10)
    assert not checker.sample(None, "sample exited 1", 10)
    assert (checker.attempted, checker.failed) == (30, 20)


def test_samples_run_serially_and_host_times_scale_with_the_probe():
    env = bench._child_env(ROOT)
    assert env["REPRO_SWEEP_WORKERS"] == env["REPRO_SWEEP_PROCESSES"] == "0"
    ref = bench.PROBE_REFERENCE_S
    # Probes after set-up, after cold, after the settle rep, after each
    # of two warm reps; the machine runs at half the reference speed
    # until the last warm rep.
    sample = {"setup_s": 1.0, "cold_s": 4.0, "warm_s": [0.5, 0.3],
              "peak_rss_mb": 100.0,
              "probe_s": [2 * ref, 2 * ref, 2 * ref, 2 * ref, ref]}
    scaled = bench.at_reference_speed(sample)
    for name, values in {"setup_s": [0.5], "cold_s": [2.0],
                         "warm_s": [0.25, 0.2]}.items():
        assert scaled[name] == pytest.approx(values)
    metrics, measured = bench.end_to_end_metrics([sample])
    assert metrics == pytest.approx({"setup_s": 0.5, "cold_s": 2.0,
                                     "warm_s": 0.225, "peak_rss_mb": 100.0})
    assert measured == pytest.approx({"setup_s": 1.0, "cold_s": 4.0,
                                      "warm_s": 0.4})


def _traced(name: str, workers: str, monkeypatch):
    from repro.telemetry import Telemetry, activate

    monkeypatch.setenv("REPRO_SWEEP_WORKERS", workers)
    inputs = small_inputs(name, 1)
    tracer = layertrace.LayerTracer()
    tracer.install()
    workload = workloads.WORKLOADS[name]
    try:
        with activate(Telemetry()):
            with tracer.span("hostbench", "root") as root:
                result = workload.run(inputs)
    finally:
        tracer.uninstall()
    return tracer, root, workload.check(inputs, result)


@pytest.mark.parametrize("workers", ["0", "2"])
def test_self_times_are_nonnegative_and_sum_to_the_root(workers,
                                                        monkeypatch):
    tracer, root, _ = _traced("continuous-kv-tiered", workers, monkeypatch)
    self_times = tracer.self_times()
    assert min(self_times) >= 0.0
    assert sum(self_times) == pytest.approx(root.duration_ns / 1e9,
                                            rel=1e-9, abs=1e-9)
    layers = tracer.layer_totals()
    assert layers["core.optimizer"]["calls"] > 0
    assert layers["serving.scheduler.profile_build"]["calls"] == 1


def test_tracing_leaves_simulated_outputs_unchanged(monkeypatch):
    for name in ("continuous-kv-tiered", "fleet-chaos"):
        untraced = outcome(name, small_inputs(name, 1))
        _, _, traced = _traced(name, "2", monkeypatch)
        assert traced.fingerprint == untraced.fingerprint
        assert traced.sim == untraced.sim


def test_every_binding_is_wrapped_and_restored():
    from repro.core.latency import layer_latency
    from repro.core.optimizer import optimal_policy

    layertrace.import_all()
    policy_bindings = layertrace.bindings(optimal_policy)
    latency_bindings = layertrace.bindings(layer_latency)
    assert len(policy_bindings) >= 5 and len(latency_bindings) >= 5
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        assert layertrace.bindings(optimal_policy) == []
        assert layertrace.bindings(layer_latency) == []
    finally:
        tracer.uninstall()
    assert layertrace.bindings(optimal_policy) == policy_bindings
    assert layertrace.bindings(layer_latency) == latency_bindings


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HOSTBENCH, "run.py"),
         "--workload", "figure-grid", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
