"""What the traced run wraps, and the per-layer metrics it derives.

:data:`PROBES` names each traced callable by the dotted path its caller looks
it up under.  :data:`LAYER_METRICS` lists the per-layer metrics with the
end-to-end metric each should move (``metric@workload``) and the workloads on
which it should stay flat, so a change to one layer can be checked against a
prediction made before it was written.  Every metric is reported twice: the
plain name under the ``exact`` backend, ``<name>.fast`` under ``fast``
(``trace.missing_paths`` does not depend on the backend and has no twin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from perfbench.tracer import Probe, Tracer

# --------------------------------------------------------------------------- #
# count functions
# --------------------------------------------------------------------------- #
_CALIBRATING = ("api.session.calibrate", "api.calibrate_shared", "core.detector.calibrate")


def _monitoring(enclosing: tuple[str, ...]) -> bool:
    return not any(metric in _CALIBRATING for metric in enclosing)


def _count_scenes(arguments: Mapping[str, Any], enclosing: tuple[str, ...]):
    yield "channel.clean_cfr_batch.scenes", len(arguments["scenes"])


def _count_packets(arguments: Mapping[str, Any], enclosing: tuple[str, ...]):
    yield "csi.collect_batch.packets", sum(arguments["counts"])


def _count_sanitized_many(arguments: Mapping[str, Any], enclosing: tuple[str, ...]):
    if _monitoring(enclosing):
        yield "csi.sanitized_windows", len(arguments["traces"])


def _count_sanitized_one(arguments: Mapping[str, Any], enclosing: tuple[str, ...]):
    if _monitoring(enclosing):
        yield "csi.sanitized_windows", 1


def _count_scored(arguments: Mapping[str, Any], enclosing: tuple[str, ...]):
    windows = len(arguments["windows"]) if "windows" in arguments else 1
    parent = enclosing[-1] if enclosing else None
    if parent != "core.detector.score":
        yield "core.detector.windows", windows
    if parent == "api.score_windows_batch":
        yield "api.score_windows_batch.fallback_windows", windows


def _count_batch(arguments: Mapping[str, Any], enclosing: tuple[str, ...]):
    windows = len(arguments["ready"])
    yield "api.score_windows_batch.windows", windows
    if enclosing and enclosing[-1] == "fleet.scheduler.run":
        yield "fleet.scheduler.flushes", 1
        yield "fleet.scheduler.flushed_windows", windows


_DETECTOR = "repro.core.detector"

#: Every traced callable.  Methods are named at their defining class; a
#: scorer or calibrator a registered detector class defines itself must be
#: listed here too (the tests check this against the default registry).
PROBES: tuple[Probe, ...] = (
    Probe("experiments.run_case", "repro.experiments.runner.run_case"),
    Probe("experiments.plan_case", "repro.experiments.case_program.plan_case"),
    Probe(
        "channel.clean_cfr_batch",
        "repro.channel.channel.ChannelSimulator.clean_cfr_batch",
        _count_scenes,
    ),
    Probe(
        "csi.collect_batch",
        "repro.csi.collector.PacketCollector.collect_batch",
        _count_packets,
    ),
    Probe("csi.sanitize_traces", "repro.api.monitor.sanitize_traces", _count_sanitized_many),
    Probe("csi.sanitize_trace", "repro.api.monitor.sanitize_trace", _count_sanitized_one),
    Probe("csi.sanitize_trace", "repro.api.session.sanitize_trace", _count_sanitized_one),
    Probe("csi.sanitize_trace", f"{_DETECTOR}.sanitize_trace", _count_sanitized_one),
    Probe("core.detector.score", f"{_DETECTOR}._BaseDetector.score", _count_scored),
    Probe("core.detector.score", f"{_DETECTOR}._BaseDetector.score_prepared", _count_scored),
    Probe(
        "core.detector.score",
        f"{_DETECTOR}._BaseDetector.score_prepared_windows",
        _count_scored,
    ),
    Probe(
        "core.detector.score",
        f"{_DETECTOR}.BaselineDetector.score_prepared_windows",
        _count_scored,
    ),
    Probe(
        "core.detector.score",
        f"{_DETECTOR}.SubcarrierWeightingDetector.score_prepared_windows",
        _count_scored,
    ),
    Probe(
        "core.detector.score",
        f"{_DETECTOR}.SubcarrierPathWeightingDetector.score_prepared_windows",
        _count_scored,
    ),
    Probe("core.detector.calibrate", f"{_DETECTOR}._BaseDetector.calibrate"),
    Probe("core.detector.calibrate", f"{_DETECTOR}._BaseDetector.calibrate_prepared"),
    Probe("api.calibrate_shared", "repro.api.monitor.calibrate_shared"),
    Probe("api.score_windows_shared", "repro.api.monitor.score_windows_shared"),
    Probe("api.score_windows_batch", "repro.api.monitor.score_windows_batch", _count_batch),
    Probe(
        "api.score_windows_batch", "repro.fleet.scheduler.score_windows_batch", _count_batch
    ),
    Probe("api.session.advance", "repro.api.session.StreamingSession.advance"),
    Probe("api.session.calibrate", "repro.api.session.StreamingSession.calibrate"),
    Probe("api.monitor.push", "repro.api.monitor.MultiLinkMonitor.push"),
    Probe("fleet.build_fleet_traffic", "repro.fleet.engine.build_fleet_traffic"),
    Probe("fleet.traffic.frame", "repro.fleet.traffic.LinkTraffic.frame"),
    Probe("fleet.scheduler.run", "repro.fleet.scheduler.FleetScheduler.run"),
)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the prediction it carries."""

    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    flat: tuple[str, ...] = ()


def _self_s(name: str, moves: Iterable[str], flat: Iterable[str] = ()) -> LayerMetric:
    return LayerMetric(f"{name}.self_s", "s", "lower", tuple(moves), tuple(flat))


LAYER_METRICS: tuple[LayerMetric, ...] = (
    _self_s("experiments.run_case", ["windows_per_s@campaign"], ["fleet", "stream"]),
    _self_s("experiments.plan_case", ["windows_per_s@campaign"], ["fleet", "stream"]),
    _self_s("channel.clean_cfr_batch", ["windows_per_s@campaign"], ["fleet", "stream"]),
    LayerMetric(
        "channel.clean_cfr_batch.scenes", "count", "lower", ("windows_per_s@campaign",),
        ("fleet", "stream"),
    ),
    _self_s(
        "csi.collect_batch", ["setup_s@fleet", "windows_per_s@campaign"], ["stream"]
    ),
    LayerMetric(
        "csi.collect_batch.packets", "count", "lower",
        ("setup_s@fleet", "windows_per_s@campaign"), ("stream",),
    ),
    _self_s(
        "csi.sanitize_traces", ["windows_per_s@campaign", "latency_ms@fleet"], ["stream"]
    ),
    _self_s("csi.sanitize_trace", ["latency_ms@stream", "setup_s@fleet"], ["campaign"]),
    LayerMetric(
        "csi.sanitized_per_decision", "ratio", "lower",
        ("windows_per_s@campaign", "latency_ms@stream"),
    ),
    _self_s(
        "core.detector.score", ["windows_per_s@campaign", "latency_ms@stream"], ["fleet"]
    ),
    LayerMetric(
        "core.detector.windows", "count", "lower",
        ("windows_per_s@campaign", "latency_ms@stream"), ("fleet",),
    ),
    _self_s("core.detector.calibrate", ["setup_s@fleet"]),
    _self_s("api.calibrate_shared", ["windows_per_s@campaign"], ["fleet", "stream"]),
    _self_s("api.score_windows_shared", ["windows_per_s@campaign"], ["fleet", "stream"]),
    _self_s(
        "api.score_windows_batch",
        ["latency_ms@fleet", "latency_ms@stream"],
        ["campaign"],
    ),
    LayerMetric(
        "api.score_windows_batch.stacked_frac", "frac", "higher",
        ("latency_ms@fleet", "latency_ms@stream"), ("campaign",),
    ),
    _self_s(
        "api.session.advance", ["windows_per_s@fleet", "windows_per_s@stream"], ["campaign"]
    ),
    LayerMetric(
        "api.session.advance.calls", "count", "lower",
        ("windows_per_s@fleet", "windows_per_s@stream"), ("campaign",),
    ),
    _self_s("api.monitor.push", ["windows_per_s@stream"], ["campaign", "fleet"]),
    _self_s("api.session.calibrate", ["setup_s@fleet", "setup_s@stream"], ["campaign"]),
    _self_s("fleet.build_fleet_traffic", ["setup_s@fleet"], ["campaign", "stream"]),
    _self_s("fleet.traffic.frame", ["windows_per_s@fleet"], ["campaign", "stream"]),
    LayerMetric(
        "fleet.traffic.frame.calls", "count", "lower", ("windows_per_s@fleet",),
        ("campaign", "stream"),
    ),
    _self_s(
        "fleet.scheduler.run", ["windows_per_s@fleet", "latency_ms@fleet"],
        ["campaign", "stream"],
    ),
    LayerMetric(
        "fleet.scheduler.windows_per_flush", "windows", "higher",
        ("windows_per_s@fleet", "latency_ms@fleet"), ("campaign", "stream"),
    ),
    LayerMetric("trace.coverage", "frac", "higher", ()),
    LayerMetric("trace.overhead_frac", "frac", "lower", ()),
)

#: Backend-independent per-layer metrics (reported once, without a twin).
MISSING_PATHS = LayerMetric("trace.missing_paths", "count", "lower", ())


def per_layer_metrics() -> list[LayerMetric]:
    """Every printed per-layer metric, ``.fast`` twins included, in order."""
    metrics: list[LayerMetric] = []
    for metric in LAYER_METRICS:
        metrics.append(metric)
        metrics.append(
            LayerMetric(f"{metric.name}.fast", metric.unit, metric.better, metric.moves, metric.flat)
        )
    metrics.append(MISSING_PATHS)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer: Tracer, *, decisions: int, wall_s: float) -> dict[str, float]:
    """One traced rep's per-layer values (``trace.overhead_frac`` excluded).

    *decisions* is the rep's count of detection decisions and *wall_s* the
    rep's traced wall time, the denominator of ``trace.coverage``.  A ratio
    whose base is zero (no batch scoring on ``campaign``, say) reads 0.
    """
    counts = tracer.counts
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric.name.endswith(".self_s"):
            values[metric.name] = tracer.self_s.get(metric.name[: -len(".self_s")], 0.0)
    values["channel.clean_cfr_batch.scenes"] = counts.get("channel.clean_cfr_batch.scenes", 0)
    values["csi.collect_batch.packets"] = counts.get("csi.collect_batch.packets", 0)
    values["csi.sanitized_per_decision"] = _ratio(
        counts.get("csi.sanitized_windows", 0), decisions
    )
    values["core.detector.windows"] = counts.get("core.detector.windows", 0)
    batch_windows = counts.get("api.score_windows_batch.windows", 0)
    values["api.score_windows_batch.stacked_frac"] = _ratio(
        batch_windows - counts.get("api.score_windows_batch.fallback_windows", 0),
        batch_windows,
    )
    values["api.session.advance.calls"] = counts.get("api.session.advance.calls", 0)
    values["fleet.traffic.frame.calls"] = counts.get("fleet.traffic.frame.calls", 0)
    values["fleet.scheduler.windows_per_flush"] = _ratio(
        counts.get("fleet.scheduler.flushed_windows", 0),
        counts.get("fleet.scheduler.flushes", 0),
    )
    values["trace.coverage"] = _ratio(tracer.total_self_s, wall_s)
    return {name: float(value) for name, value in values.items()}
