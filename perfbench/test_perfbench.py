"""Fast checks of the benchmark's own machinery (no full workload runs)."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run
from perfbench import workloads as wl
from perfbench.tracer import Probe, Tracer, resolve
from repro.api import PipelineConfig
from repro.api.registry import DEFAULT_REGISTRY, DetectorRegistry
from repro.core.detector import shares_sanitized_view
from repro.experiments.scenarios import evaluation_cases

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# --------------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------------- #
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def toy(monkeypatch):
    """A throwaway module whose functions advance a manual clock."""
    clock = _Clock()
    module = types.ModuleType("perfbench_toy")

    def inner():
        clock.now += 5.0

    def unwrapped():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        module.inner()
        module.unwrapped()
        module.inner()
        clock.now += 4.0

    def boom():
        clock.now += 2.0
        raise ValueError("boom")

    module.inner, module.unwrapped, module.outer, module.boom = inner, unwrapped, outer, boom
    monkeypatch.setitem(sys.modules, "perfbench_toy", module)
    return module, clock


def test_self_time_excludes_wrapped_children_only(toy):
    module, clock = toy
    probes = [
        Probe("toy.outer", "perfbench_toy.outer"),
        Probe("toy.inner", "perfbench_toy.inner"),
        Probe("toy.boom", "perfbench_toy.boom"),
    ]
    tracer = Tracer(probes, clock=clock)
    with tracer:
        module.outer()
        with pytest.raises(ValueError):
            module.boom()
    # outer spans 1 + 5 + 3 + 5 + 4 = 18; its wrapped children take 10, and
    # the unwrapped 3 stays in its self time.
    assert tracer.self_s == {"toy.outer": 8.0, "toy.inner": 10.0, "toy.boom": 2.0}
    assert tracer.counts["toy.inner.calls"] == 2
    assert tracer.total_self_s == 20.0
    assert tracer.missing == []


def test_wrappers_restored_after_trace_and_after_error():
    originals = {}
    for probe in layers.PROBES:
        owner, attribute, raw = resolve(probe.path)
        originals[probe.path] = (owner, attribute, raw)
    tracer = Tracer(layers.PROBES)
    with pytest.raises(RuntimeError):
        with tracer:
            for owner, attribute, raw in originals.values():
                current = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
                    owner, attribute
                )
                assert current is not raw
            raise RuntimeError("interrupted")
    assert tracer.missing == []
    for owner, attribute, raw in originals.values():
        current = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        assert current is raw


def test_wrapping_keeps_shared_sanitized_view_path():
    link = evaluation_cases()[0][1]
    detectors = [
        DEFAULT_REGISTRY.create(name, config=PipelineConfig(detector=name), link=link)
        for name in DEFAULT_REGISTRY.names()
    ]
    before = [shares_sanitized_view(detector) for detector in detectors]
    with Tracer(layers.PROBES):
        assert [shares_sanitized_view(detector) for detector in detectors] == before
    assert all(before)


def test_every_registered_detector_scorer_is_probed():
    link = evaluation_cases()[0][1]
    paths = {probe.path for probe in layers.PROBES}
    hooks = {
        "core.detector.score": ("score", "score_prepared", "score_prepared_windows"),
        "core.detector.calibrate": ("calibrate", "calibrate_prepared"),
    }
    for name in DEFAULT_REGISTRY.names():
        detector = DEFAULT_REGISTRY.create(name, config=PipelineConfig(detector=name), link=link)
        for cls in type(detector).__mro__:
            for metric, names in hooks.items():
                for hook in names:
                    if hook in vars(cls):
                        path = f"{cls.__module__}.{cls.__qualname__}.{hook}"
                        assert path in paths, f"{name}: {path} is not probed"


def test_unresolvable_paths_are_reported_not_raised():
    probes = [
        Probe("gone", "repro.no_such_module.function"),
        Probe("inherited", "repro.core.detector.BaselineDetector.score"),
        Probe("attribute", "repro.api.monitor.no_such_function"),
    ]
    tracer = Tracer(probes)
    with tracer:
        pass
    assert len(tracer.missing) == 3
    assert "not defined at BaselineDetector" in tracer.missing[1]
    values = layers.layer_values(tracer, decisions=1, wall_s=1.0)
    assert values["trace.coverage"] == 0.0


# --------------------------------------------------------------------------- #
# metric names
# --------------------------------------------------------------------------- #
def test_printed_metric_names_are_listed_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed_e2e = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    listed_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    assert dict(run.end_to_end_names()) == listed_e2e
    printed_layer = {metric.name: metric.unit for metric in layers.per_layer_metrics()}
    assert printed_layer == listed_layer
    # layer_values plus the overhead cover every metric with a twin.
    derived = set(layers.layer_values(Tracer(()), decisions=1, wall_s=1.0))
    assert derived | {"trace.overhead_frac"} == {m.name for m in layers.LAYER_METRICS}
    for name in list(listed_e2e) + list(listed_layer):
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_layer_predictions_name_known_metrics_and_workloads():
    e2e = {name for name, _ in run.end_to_end_names()}
    for metric in layers.LAYER_METRICS:
        for prediction in metric.moves:
            target, workload = prediction.split("@")
            assert target in e2e and workload in wl.WORKLOADS, prediction
        assert set(metric.flat) <= set(wl.WORKLOADS)


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def _tiny_stream(seed: int, **kwargs) -> wl.Stream:
    return wl.Stream(seed, links=2, packets=60, burst_packets=20, **kwargs)


def test_workload_inputs_are_deterministic_per_seed():
    first, again, other = _tiny_stream(7), _tiny_stream(7), _tiny_stream(8)

    def stacked(stream):
        return np.stack([frame.csi for step in stream.steps for frame in step.values()])

    assert np.array_equal(stacked(first), stacked(again))
    assert not np.array_equal(stacked(first), stacked(other))
    for name in first.calibration:
        assert np.array_equal(first.calibration[name].csi, again.calibration[name].csi)
    assert wl.Fleet(7).config("fast") == wl.Fleet(7).config("fast")
    assert wl.Fleet(7).config("fast").seed == 7
    assert wl.Campaign(7).config("exact") == wl.Campaign(7).config("exact")
    assert wl.Campaign(7).config("exact").seed == 7


def test_traced_stream_rep_matches_untraced_and_is_attributed():
    stream = _tiny_stream(3)
    untraced = stream.run("exact")
    tracer = Tracer(layers.PROBES)
    with tracer:
        traced = stream.run("exact")
    assert traced.digest == untraced.digest
    assert traced.decisions == 16 and traced.failed == 0
    values = layers.layer_values(tracer, decisions=traced.decisions, wall_s=traced.wall_s)
    assert values["core.detector.score.self_s"] > 0
    assert values["csi.sanitized_per_decision"] == 1.0
    assert 0.5 < values["trace.coverage"] <= 1.0
    fast = stream.run("fast")
    assert wl.check_backend_parity("stream", untraced, fast) < wl.FAST_RELATIVE_TOLERANCE


class _NanDetector:
    is_calibrated = False

    def calibrate(self, baseline):
        self.is_calibrated = True

    def score(self, window):
        return math.nan


def test_nan_scoring_detector_counts_as_failed_not_crash():
    registry = DetectorRegistry()
    registry.register("nan", lambda config, link: _NanDetector())
    rep = _tiny_stream(3, detector="nan", registry=registry).run("exact")
    assert rep.decisions == 16
    assert rep.failed == rep.decisions
    assert "nan" not in DEFAULT_REGISTRY


def _rep(meta, score, digest="d"):
    return wl.Rep(wall_s=1.0, phase_s=1.0, decisions=1, failed=0, digest=digest,
                  outcome=[(meta, score, 1.0)])


def test_gates_reject_divergent_backends_and_repeats():
    exact = _rep(("a", 0), 1.0)
    assert wl.check_backend_parity("w", exact, _rep(("a", 0), 1.0 + 1e-14)) < 1e-12
    with pytest.raises(wl.GateError):
        wl.check_backend_parity("w", exact, _rep(("a", 0), 1.0 + 1e-9))
    with pytest.raises(wl.GateError):
        wl.check_backend_parity("w", exact, _rep(("b", 0), 1.0))
    with pytest.raises(wl.GateError):
        wl.check_repeats("w", "exact", [exact, _rep(("a", 0), 1.0, digest="e")])


def test_summary_pools_samples_and_takes_medians():
    reps = [
        wl.Rep(wall_s=2.0, phase_s=phase, decisions=10, failed=0, digest="d", outcome=[],
               setup_s=setup, latencies_s=[0.001 * (i + 1) for i in range(100)])
        for phase, setup in ((1.0, 0.3), (2.0, 0.1), (4.0, 0.2))
    ]
    summary = wl.summarize(reps)
    assert summary["windows_per_s"] == 5.0
    assert summary["setup_s"] == 0.2
    assert summary["latency_samples"] == 300
    assert summary["latency_ms"] == pytest.approx(50.5)
    assert summary["latency_p50_ms"] == pytest.approx(50.5)


def test_latency_is_the_median_over_reps_of_each_rep_mean():
    # Calls at two speeds: the pooled median lands on the slow one, the
    # median of the per-rep means moves with the share of slow calls.
    reps = [
        wl.Rep(wall_s=1.0, phase_s=1.0, decisions=10, failed=0, digest="d", outcome=[],
               latencies_s=[0.001] * (10 - slow) + [0.004] * slow)
        for slow in (4, 6, 6)
    ]
    summary = wl.summarize(reps)
    assert summary["latency_ms"] == pytest.approx(2.8)
    assert summary["latency_p50_ms"] == pytest.approx(4.0)
    fleet_like = [
        wl.Rep(wall_s=1.0, phase_s=1.0, decisions=10, failed=0, digest="d", outcome=[],
               latency_pcts_s=(p50, 0.1, 10))
        for p50 in (0.003, 0.001, 0.002)
    ]
    assert wl.summarize(fleet_like)["latency_ms"] == pytest.approx(2.0)
    with pytest.raises(wl.GateError):
        wl.rep_latency_s(wl.Rep(wall_s=1.0, phase_s=1.0, decisions=0, failed=0,
                                digest="d", outcome=[]))


def test_run_without_library_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
