"""Multi-link monitoring and the shared scoring core.

A deployment rarely watches a single TX-RX pair — the paper's evaluation alone
spans five links.  :class:`MultiLinkMonitor` owns one
:class:`~repro.api.session.StreamingSession` per link, accepts per-link frames
in lockstep (the links all hear the same ping schedule, so their windows
complete on the same pushes) and scores every completed window in one batch.

Every batch scorer — the monitor, the fleet scheduler
(:func:`score_windows_batch`) and the campaign (:func:`score_windows_shared`)
— goes through one core that scores ``(detector, window)`` pairs.  It
sanitises every distinct window of the view-sharing detectors in one
:func:`~repro.csi.calibration.sanitize_traces` call, scores all baseline
pairs across detectors in one stacked program
(:func:`~repro.core.detector.baseline_scores`, bit-exact under every
backend), and scores the other detectors' windows per detector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro import obs
from repro.backend import active_backend
from repro.core.detector import BaselineDetector, baseline_scores, shares_sanitized_view
from repro.csi.calibration import sanitize_trace, sanitize_traces
from repro.csi.format import CSIFrame
from repro.csi.trace import CSITrace

from repro.api.session import DetectionEvent, StreamingSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link

    from repro.api.config import PipelineConfig
    from repro.api.registry import DetectorRegistry


class MultiLinkMonitor:
    """Fan a shared packet stream across N links and score them together.

    Parameters
    ----------
    sessions:
        Mapping from link name to the session monitoring that link.  Sessions
        without a ``link_name`` inherit the mapping key so their events are
        attributable.
    """

    def __init__(self, sessions: Mapping[str, StreamingSession]) -> None:
        if not sessions:
            raise ValueError("MultiLinkMonitor needs at least one session")
        self._sessions: dict[str, StreamingSession] = {}
        for name, session in sessions.items():
            if not isinstance(session, StreamingSession):
                raise TypeError(
                    f"session for {name!r} must be a StreamingSession, "
                    f"got {type(session).__name__}"
                )
            if not session.link_name:
                session.link_name = name
            self._sessions[name] = session

    @classmethod
    def from_config(
        cls,
        config: "PipelineConfig",
        links: Sequence["Link"],
        *,
        registry: "DetectorRegistry | None" = None,
    ) -> "MultiLinkMonitor":
        """One monitor with an identically-configured session per link."""
        if not links:
            raise ValueError("from_config needs at least one link")
        names = [getattr(link, "name", "") or f"link-{i}" for i, link in enumerate(links)]
        if len(set(names)) != len(names):
            raise ValueError(f"link names must be unique, got {names}")
        return cls(
            {
                name: StreamingSession.from_config(
                    config, link, link_name=name, registry=registry
                )
                for name, link in zip(names, links)
            }
        )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def calibrate(self, baselines: Mapping[str, CSITrace]) -> None:
        """Calibrate every session from its link's empty-environment trace."""
        missing = set(self._sessions) - set(baselines)
        if missing:
            raise ValueError(f"missing calibration traces for links: {sorted(missing)}")
        for name, session in self._sessions.items():
            session.calibrate(baselines[name])

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def push(self, frames: Mapping[str, CSIFrame]) -> list[DetectionEvent]:
        """Consume one frame per link; return the events of this step.

        Frames are keyed by link name; links absent from *frames* simply do
        not advance this step (e.g. a lost ping on one link).  All windows
        completing on this push are scored in one batch.  Every frame is
        checked before any session advances, so a rejected frame (see
        :meth:`~repro.api.session.StreamingSession.advance`) leaves every
        link's session untouched.
        """
        unknown = set(frames) - set(self._sessions)
        if unknown:
            raise ValueError(
                f"frames for unknown links {sorted(unknown)}; "
                f"known links: {sorted(self._sessions)}"
            )
        for name, frame in frames.items():
            self._sessions[name]._check_frame(frame)
        ready: list[tuple[StreamingSession, CSITrace]] = []
        for name, session in self._sessions.items():
            if name not in frames:
                continue
            if session.advance(frames[name]):
                ready.append((session, session.pending_window()))
        return score_windows_batch(ready)

    def push_traces(self, traces: Mapping[str, CSITrace]) -> list[DetectionEvent]:
        """Stream per-link traces of equal length frame by frame, in lockstep."""
        unknown = set(traces) - set(self._sessions)
        if unknown:
            raise ValueError(
                f"traces for unknown links {sorted(unknown)}; "
                f"known links: {sorted(self._sessions)}"
            )
        lengths = {name: trace.num_packets for name, trace in traces.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(
                f"traces must share one packet count for lockstep streaming, got {lengths}"
            )
        events: list[DetectionEvent] = []
        num_packets = next(iter(lengths.values())) if lengths else 0
        for i in range(num_packets):
            events.extend(self.push({name: trace.frame(i) for name, trace in traces.items()}))
        return events

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def sessions(self) -> dict[str, StreamingSession]:
        """The per-link sessions (mapping key = link name)."""
        return dict(self._sessions)

    @property
    def links(self) -> tuple[str, ...]:
        """Monitored link names."""
        return tuple(self._sessions)

    def events(self) -> list[DetectionEvent]:
        """The retained events across links, in timestamp order.

        Each session keeps its last ``event_history`` events (see
        :class:`~repro.api.session.StreamingSession`).
        """
        merged: list[DetectionEvent] = []
        for session in self._sessions.values():
            merged.extend(session.events)
        merged.sort(key=lambda e: (e.timestamp, e.link))
        return merged

    def __repr__(self) -> str:
        return f"{type(self).__name__}(links={list(self._sessions)})"


#: How the scoring core handles one detector's windows.
_RAW, _PREPARED, _BASELINE = range(3)


def _route(detector: Any) -> int:
    """Raw ``score`` for detectors that may not share a sanitised view, the
    cross-detector baseline stack for an unmodified baseline formula, the
    detector's own prepared scoring otherwise."""
    if not shares_sanitized_view(detector):
        return _RAW
    scorer = getattr(detector._score_prepared, "__func__", None)
    return _BASELINE if scorer is BaselineDetector._score_prepared else _PREPARED


def _score_pairs(pairs: Sequence[tuple[Any, CSITrace]]) -> list[float]:
    """Score ``(detector, window)`` pairs; the one scoring core.

    Each detector is routed once (:func:`_route`).  Every distinct window of
    a view-sharing detector is sanitised in one
    :func:`~repro.csi.calibration.sanitize_traces` call, in pair order: the
    ``fast`` phase fit depends on batch order and composition, so callers
    fix both through *pairs*.  All baseline pairs are scored in one
    :func:`~repro.core.detector.baseline_scores` program, bit-exact under
    every backend.  A detector holding several prepared windows under a
    ``tolerance_parity`` backend runs its stacked ``score_prepared_windows``
    with one scratch cache per window stack; otherwise it scores each window
    through ``score_prepared``.  Under ``exact`` every score is bit-identical
    to ``detector.score(window)``.
    """
    with obs.span("score.batch"):
        groups: dict[int, tuple[Any, int, list[int]]] = {}
        for position, (detector, _) in enumerate(pairs):
            group = groups.get(id(detector))
            if group is None:
                group = groups[id(detector)] = (detector, _route(detector), [])
            group[2].append(position)
        distinct = {
            id(window): window
            for detector, window in pairs
            if groups[id(detector)][1] != _RAW
        }
        prepared = dict(zip(distinct, sanitize_traces(list(distinct.values()))))

        scores = [0.0] * len(pairs)
        baseline = [
            position
            for _, route, positions in groups.values()
            if route == _BASELINE
            for position in positions
        ]
        batch = baseline_scores(
            [pairs[position][0] for position in baseline],
            [prepared[id(pairs[position][1])] for position in baseline],
        )
        for position, score in zip(baseline, batch):
            scores[position] = score

        stacked = getattr(active_backend(), "tolerance_parity", False)
        caches: dict[tuple[int, ...], dict] = {}
        for detector, route, positions in groups.values():
            if route == _BASELINE:
                continue
            windows = [pairs[position][1] for position in positions]
            if route == _RAW:
                group_scores = [detector.score(window) for window in windows]
            elif stacked and len(windows) > 1:
                windows = [prepared[id(window)] for window in windows]
                cache = caches.setdefault(tuple(map(id, windows)), {})
                group_scores = detector.score_prepared_windows(windows, cache=cache)
            else:
                group_scores = [
                    detector.score_prepared(prepared[id(window)]) for window in windows
                ]
            for position, score in zip(positions, group_scores):
                scores[position] = float(score)
    obs.count("score.windows", len(pairs))
    return scores


def score_windows_batch(
    ready: Sequence[tuple[StreamingSession, CSITrace]]
) -> list[DetectionEvent]:
    """Score completed windows from several sessions in one batch.

    The cross-link scoring step of :meth:`MultiLinkMonitor.push` and the
    fleet scheduler (:mod:`repro.fleet.scheduler`): the ready
    ``(session, window)`` pairs go through the shared core
    (:func:`_score_pairs`) and the events are emitted through
    :meth:`~repro.api.session.StreamingSession.emit` in *ready* order.
    """
    if not ready:
        return []
    scores = _score_pairs([(session.detector, window) for session, window in ready])
    return [
        session.emit(window, score) for (session, window), score in zip(ready, scores)
    ]


def calibrate_shared(detectors: Mapping[str, object], baseline: CSITrace) -> None:
    """Calibrate several detectors from one baseline, sanitising it once.

    Detectors that keep the base-class prepare/compute split (see
    :func:`~repro.core.detector.shares_sanitized_view`) receive one shared
    ``sanitize_trace(baseline)`` via ``calibrate_prepared``; everything else
    gets the raw trace through its own ``calibrate``.  Either way each
    detector ends up in the state its standalone ``calibrate`` would have
    produced, bit for bit.
    """
    with obs.span("score.calibrate"):
        prepared: CSITrace | None = None
        for detector in detectors.values():
            if shares_sanitized_view(detector):
                if prepared is None:
                    prepared = sanitize_trace(baseline)
                detector.calibrate_prepared(prepared)  # type: ignore[attr-defined]
            else:
                detector.calibrate(baseline)  # type: ignore[attr-defined]


def score_windows_shared(
    detectors: Mapping[str, object], windows: Sequence[CSITrace]
) -> dict[str, list[float]]:
    """Score every window under every detector, sanitising each window once.

    The campaign's scoring step: the pairs go through the shared core
    (:func:`_score_pairs`) detector by detector, so the windows are
    sanitised in *windows* order.  Returns a mapping from detector name to
    the per-window score list, in *windows* order.
    """
    windows = list(windows)
    scores = _score_pairs(
        [(detector, window) for detector in detectors.values() for window in windows]
    )
    count = len(windows)
    return {
        name: scores[index * count : (index + 1) * count]
        for index, name in enumerate(detectors)
    }
