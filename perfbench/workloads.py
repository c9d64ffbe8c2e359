"""The benchmark's three workloads and the correctness gates they must pass.

Every workload is built from a seed alone and runs under both numeric
backends in one process, with no worker pools:

* ``campaign`` -- the paper's five-case evaluation campaign
  (:func:`repro.experiments.runner.run_evaluation`), repeated warm;
* ``fleet`` -- a 1,000-link synthetic deployment
  (:func:`repro.fleet.run_fleet`) under the baseline detector;
* ``stream`` -- one closed-loop caller pushing one frame per link per step
  into a :class:`repro.api.MultiLinkMonitor` running the combined detector
  over the five case links.

A *rep* is one call of the workload's unit of work (one campaign, one fleet
run, one monitor set-up plus push loop).  A workload declares its untimed
warm-up reps, the minimum of measured reps and the traced reps of a traced
run.  Each rep yields a :class:`Rep`;
:func:`summarize` reduces one backend's reps to the end-to-end numbers.  Any
broken correctness gate raises :class:`GateError`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.api import DetectionEvent, MultiLinkMonitor, PipelineConfig
from repro.backend import use_backend
from repro.channel.channel import ChannelSimulator
from repro.channel.human import HumanBody
from repro.channel.propagation import PropagationModel
from repro.csi.collector import PacketCollector
from repro.csi.format import CSIFrame
from repro.csi.trace import CSITrace
from repro.experiments import runner
from repro.experiments.scenarios import evaluation_cases, human_grid
from repro.fleet import FleetConfig, engine

BACKENDS: tuple[str, ...] = ("exact", "fast")

#: Relative per-decision score bound between ``fast`` and ``exact``; the same
#: bound the backend parity suite holds the campaign to.
FAST_RELATIVE_TOLERANCE = 1e-12

#: The exact campaign at seed 2015: score digest (the parity suite's
#: ``scores_sha256``) and headline detection rates.
PINNED_SEED = 2015
PINNED_CAMPAIGN_SHA256 = "a2917712be8f726e7ac83d0c90c761f2cd65dd79dc6f485e4f74f6b995e96a6d"
PINNED_HEADLINE = {
    ("combined", "true_positive_rate"): 0.9629629629629629,
    ("combined", "false_positive_rate"): 0.014814814814814815,
    ("baseline", "true_positive_rate"): 0.8592592592592593,
    ("subcarrier", "true_positive_rate"): 0.9851851851851852,
}

#: Latency samples needed so that the 99th percentile has ten beyond it.
P99_MIN_SAMPLES = 1000


class GateError(RuntimeError):
    """A correctness gate failed; the run must not report numbers."""


@dataclass
class Rep:
    """One unit of work under one backend.

    ``wall_s`` spans the whole call (the base of tracing overhead and
    coverage); ``phase_s`` is the timed phase the throughput is taken over;
    ``setup_s`` is the mean of the rep's set-ups.  Latencies come either as
    samples (``latencies_s``) or, when the program reports only percentiles,
    as ``latency_pcts_s`` = (p50, p99, samples).
    """

    wall_s: float
    phase_s: float
    decisions: int
    failed: int
    digest: str
    outcome: list[tuple[tuple[Any, ...], float, float]]
    setup_s: float | None = None
    latencies_s: list[float] = field(default_factory=list)
    latency_pcts_s: tuple[float, float, int] | None = None
    errors: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# digests and per-decision checks
# --------------------------------------------------------------------------- #
def scores_sha256(result: Any) -> str:
    """The campaign score digest the backend parity suite pins."""
    digest = hashlib.sha256()
    for window in result.windows:
        digest.update(f"{window.scheme}|{window.case}|{window.occupied}|".encode())
        digest.update(struct.pack("<d", window.score))
    return digest.hexdigest()


def events_sha256(events: Sequence[DetectionEvent]) -> str:
    """sha256 over the canonical JSON of an event stream."""
    payload = json.dumps([event.to_dict() for event in events], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def event_failed(event: DetectionEvent) -> bool:
    """A non-finite score, or no decision under a finite calibrated threshold."""
    return (
        not math.isfinite(event.score)
        or event.threshold is None
        or not math.isfinite(event.threshold)
        or event.detected is None
    )


def event_outcome(event: DetectionEvent) -> tuple[tuple[Any, ...], float, float]:
    """``(metadata, score, threshold)`` of an event, for backend parity."""
    meta = (
        event.link,
        event.index,
        event.timestamp,
        event.detected,
        event.window_packets,
        event.packets_seen,
    )
    threshold = math.nan if event.threshold is None else event.threshold
    return meta, event.score, threshold


def check_repeats(workload: str, backend: str, reps: Sequence[Rep]) -> None:
    """Every rep of one backend must produce the same digest."""
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        raise GateError(f"{workload}/{backend}: repeats disagree: {sorted(digests)}")


def check_backend_parity(workload: str, exact: Rep, fast: Rep) -> float:
    """Identical metadata and scores within the tolerance; returns the max delta."""
    if len(exact.outcome) != len(fast.outcome):
        raise GateError(
            f"{workload}: exact made {len(exact.outcome)} decisions, "
            f"fast {len(fast.outcome)}"
        )
    worst = 0.0
    for position, (ours, theirs) in enumerate(zip(exact.outcome, fast.outcome)):
        if ours[0] != theirs[0]:
            raise GateError(
                f"{workload}: decision {position} metadata differs: {ours[0]} vs {theirs[0]}"
            )
        for a, b in zip(ours[1:], theirs[1:]):
            if math.isnan(a) and math.isnan(b):
                continue
            delta = abs(b - a) / max(abs(a), 1e-300)
            if not delta < FAST_RELATIVE_TOLERANCE:
                raise GateError(
                    f"{workload}: decision {position} fast/exact relative delta "
                    f"{delta:.3g} >= {FAST_RELATIVE_TOLERANCE:g}"
                )
            worst = max(worst, delta)
    return worst


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
class Campaign:
    """The five-case evaluation campaign with default settings."""

    name = "campaign"
    warmup_reps = 1
    min_reps = 5
    trace_reps = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pins_checked = seed != PINNED_SEED

    def config(self, backend: str) -> runner.EvaluationConfig:
        return runner.EvaluationConfig(seed=self.seed, backend=backend, max_workers=1)

    def run(self, backend: str) -> Rep:
        config = self.config(backend)
        start = time.perf_counter()
        result = runner.run_evaluation(config)
        wall = time.perf_counter() - start
        if backend == "exact" and not self.pins_checked:
            check_campaign_pins(result)
            self.pins_checked = True
        decisions = len(result.windows)
        return Rep(
            wall_s=wall,
            phase_s=wall,
            decisions=decisions,
            failed=sum(1 for window in result.windows if not math.isfinite(window.score)),
            digest=scores_sha256(result),
            outcome=[
                ((w.scheme, w.case, w.occupied), w.score, 0.0) for w in result.windows
            ],
            # Every decision is delivered when the campaign returns.
            latencies_s=[wall] * decisions,
        )


def check_campaign_pins(result: Any) -> None:
    """The exact campaign at the pinned seed must reproduce the pins."""
    digest = scores_sha256(result)
    if digest != PINNED_CAMPAIGN_SHA256:
        raise GateError(f"campaign: exact score sha256 {digest} != pinned")
    headline = result.headline()
    for (scheme, rate), pinned in PINNED_HEADLINE.items():
        if headline[scheme][rate] != pinned:
            raise GateError(
                f"campaign: headline {scheme}.{rate} = {headline[scheme][rate]!r}, "
                f"pinned {pinned!r}"
            )


class Fleet:
    """A 1,000-link fleet under the baseline detector, about 7k windows."""

    name = "fleet"
    warmup_reps = 0
    min_reps = 5
    trace_reps = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def config(self, backend: str) -> FleetConfig:
        return FleetConfig(
            links=1000,
            duration_s=8.0,
            seed=self.seed,
            backend=backend,
            batch_windows=64,
            pool_packets=40,
            max_workers=1,
            pipeline=PipelineConfig(
                detector="baseline", window_packets=10, calibration_packets=30
            ),
        )

    def run(self, backend: str) -> Rep:
        config = self.config(backend)
        start = time.perf_counter()
        report = engine.run_fleet(config)
        wall = time.perf_counter() - start
        return Rep(
            wall_s=wall,
            phase_s=report.elapsed_s,
            decisions=report.windows_scored,
            failed=sum(1 for event in report.events if event_failed(event)),
            digest=report.event_digest(),
            outcome=[event_outcome(event) for event in report.events],
            setup_s=report.setup_s,
            latency_pcts_s=(
                report.latency_p50_s,
                report.latency_p99_s,
                report.windows_scored,
            ),
        )


class Stream:
    """Closed-loop push of one frame per link per step into a monitor.

    Traffic is simulated before timing: a calibration capture per link, then
    bursts of ``burst_packets`` alternating between an empty scene and a
    person standing at one of the link's grid positions, in a seeded order.

    A rep builds and calibrates the monitor ``setup_repeats`` times (a
    set-up takes tens of milliseconds, too short to time once) and pushes
    every step into the last one.
    """

    name = "stream"
    setup_repeats = 10
    warmup_reps = 1
    min_reps = 3
    trace_reps = 3

    def __init__(
        self,
        seed: int,
        *,
        links: int = 5,
        packets: int = 1000,
        burst_packets: int = 50,
        detector: str = "combined",
        registry: Any = None,
    ) -> None:
        self.seed = seed
        self.registry = registry
        self.pipeline = PipelineConfig(detector=detector, window_packets=25, window_stride=5)
        self.links = [link for _, link in evaluation_cases()[:links]]
        rng = np.random.default_rng(seed)
        self.calibration: dict[str, CSITrace] = {}
        traces: dict[str, list[CSITrace]] = {}
        for link in self.links:
            channel_seed, collector_seed = (int(s) for s in rng.integers(0, 2**31 - 1, 2))
            simulator = ChannelSimulator(
                link,
                propagation=PropagationModel(tx_power=link.tx_power),
                seed=channel_seed,
            )
            collector = PacketCollector(
                simulator,
                packet_rate_hz=self.pipeline.packet_rate_hz,
                seed=collector_seed,
            )
            self.calibration[link.name] = collector.collect(
                None, num_packets=self.pipeline.calibration_packets, label="calibration"
            )
            grid = human_grid(link)
            order = rng.permutation(len(grid))
            bursts = []
            start_time = 0.0
            for burst in range(-(-packets // burst_packets)):
                humans = (
                    None
                    if burst % 2 == 0
                    else [HumanBody(position=grid[order[(burst // 2) % len(grid)]])]
                )
                trace = collector.collect(
                    humans, num_packets=burst_packets, start_time=start_time
                )
                start_time = float(trace.timestamps[-1])
                bursts.append(trace)
            traces[link.name] = bursts
        self.steps: list[dict[str, CSIFrame]] = []
        for position in range(packets):
            burst, offset = divmod(position, burst_packets)
            self.steps.append(
                {name: bursts[burst].frame(offset) for name, bursts in traces.items()}
            )

    def run(self, backend: str) -> Rep:
        window = self.pipeline.window_packets
        stride = self.pipeline.window_stride
        events: list[DetectionEvent] = []
        latencies: list[float] = []
        failed = 0
        decisions = 0
        errors: list[str] = []
        clock = time.perf_counter
        with use_backend(backend):
            start = clock()
            for _ in range(self.setup_repeats):
                monitor = MultiLinkMonitor.from_config(
                    self.pipeline, self.links, registry=self.registry
                )
                monitor.calibrate(self.calibration)
            loop_start = clock()
            for count, frames in enumerate(self.steps, start=1):
                expected = (
                    len(frames) if count >= window and (count - window) % stride == 0 else 0
                )
                pushed_at = clock()
                try:
                    step_events = monitor.push(frames)
                except Exception as exc:  # a raising window is a failed decision
                    errors.append(f"step {count}: {exc!r}")
                    decisions += max(expected, 1)
                    failed += max(expected, 1)
                    continue
                if step_events:
                    latencies.append(clock() - pushed_at)
                    events.extend(step_events)
                    decisions += len(step_events)
                    failed += sum(1 for event in step_events if event_failed(event))
            end = clock()
        return Rep(
            wall_s=end - start,
            phase_s=end - loop_start,
            decisions=decisions,
            failed=failed,
            digest=events_sha256(events),
            outcome=[event_outcome(event) for event in events],
            setup_s=(loop_start - start) / self.setup_repeats,
            latencies_s=latencies,
            errors=errors,
        )


WORKLOADS: dict[str, Callable[[int], Any]] = {
    "campaign": Campaign,
    "fleet": Fleet,
    "stream": Stream,
}


# --------------------------------------------------------------------------- #
# measurement loop and reduction
# --------------------------------------------------------------------------- #
def measure(workload: Any, budget_s: float) -> dict[str, tuple[list[Rep], list[Rep]]]:
    """``{backend: (warm-up reps, measured reps)}`` for every backend.

    After the warm-up reps, measured reps alternate between the backends, so
    that both sample the same stretch of machine time, until their walls add
    up to *budget_s* and every backend has ``workload.min_reps`` reps and,
    within three times the budget, :data:`P99_MIN_SAMPLES` latency samples.
    A garbage collection precedes every rep so that one rep's garbage is not
    collected inside the next one's timing.
    """
    warmups: dict[str, list[Rep]] = {backend: [] for backend in BACKENDS}
    reps: dict[str, list[Rep]] = {backend: [] for backend in BACKENDS}
    for backend in BACKENDS:
        for _ in range(workload.warmup_reps):
            gc.collect()
            warmups[backend].append(workload.run(backend))
    spent = 0.0
    while spent < budget_s or any(
        len(reps[backend]) < workload.min_reps
        or (_latency_samples(reps[backend]) < P99_MIN_SAMPLES and spent < 3 * budget_s)
        for backend in BACKENDS
    ):
        for backend in BACKENDS:
            gc.collect()
            rep = workload.run(backend)
            reps[backend].append(rep)
            spent += rep.wall_s
    return {backend: (warmups[backend], reps[backend]) for backend in BACKENDS}


def _latency_samples(reps: Sequence[Rep]) -> int:
    if any(rep.latency_pcts_s is not None for rep in reps):
        return sum(rep.latency_pcts_s[2] for rep in reps if rep.latency_pcts_s)
    return sum(len(rep.latencies_s) for rep in reps)


def rep_latency_s(rep: Rep) -> float:
    """A rep's decision latency: the mean of its samples or, when the program
    reports only percentiles, its median."""
    if rep.latency_pcts_s is not None:
        return rep.latency_pcts_s[0]
    if not rep.latencies_s:
        raise GateError("a rep completed no decision")
    return statistics.fmean(rep.latencies_s)


def summarize(reps: Sequence[Rep]) -> dict[str, float]:
    """Medians over one backend's measured reps.

    ``latency_ms`` is the median over reps of :func:`rep_latency_s`.  A mean
    within a rep, not a percentile of pooled samples, because on a shared
    host single calls run at two speeds for stretches of a few calls, and a
    pooled median jumps between the two as their shares cross one half.  The
    percentiles ``latency_p50_ms``/``latency_p99_ms`` (information only)
    pool every sampled latency when the reps carry samples, and otherwise
    take the median of the per-rep percentiles.
    """
    summary = {
        "windows_per_s": statistics.median(rep.decisions / rep.phase_s for rep in reps),
        "latency_ms": 1e3 * statistics.median(rep_latency_s(rep) for rep in reps),
        "latency_samples": float(_latency_samples(reps)),
    }
    setups = [rep.setup_s for rep in reps if rep.setup_s is not None]
    if setups:
        summary["setup_s"] = statistics.median(setups)
    if all(rep.latency_pcts_s is not None for rep in reps):
        summary["latency_p50_ms"] = 1e3 * statistics.median(
            rep.latency_pcts_s[0] for rep in reps  # type: ignore[index]
        )
        summary["latency_p99_ms"] = 1e3 * statistics.median(
            rep.latency_pcts_s[1] for rep in reps  # type: ignore[index]
        )
    else:
        pooled = np.concatenate([np.asarray(rep.latencies_s, dtype=float) for rep in reps])
        summary["latency_p50_ms"] = 1e3 * float(np.percentile(pooled, 50))
        summary["latency_p99_ms"] = 1e3 * float(np.percentile(pooled, 99))
    return summary
