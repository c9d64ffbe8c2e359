"""Event-ordered cross-link scheduling of streaming detection sessions.

The fleet's links ping at independent Poisson rates, so their packets arrive
interleaved in one global time order.  A link's whole arrival schedule and
CSI pool are known up front (:class:`~repro.fleet.traffic.LinkTraffic`), so
its window boundaries are too: with window ``w`` and stride ``s`` its
windows complete at arrivals ``w-1, w-1+s, ...``.  :class:`FleetScheduler`
therefore advances each link's
:class:`~repro.api.session.StreamingSession` window by window, never packet
by packet.  A heap holds one entry per live link, keyed by the arrival time
of its next window's last packet; each popped window is gathered from the
link's pool in one step (:meth:`~repro.fleet.traffic.LinkTraffic.window`)
and queued on the session through
:meth:`~repro.api.session.StreamingSession.queue_window`.  The session's
frame buffer is not filled.  Scoring is deferred: ready windows accumulate
across links and are flushed through the shared vectorized batch scorer
(:func:`repro.api.monitor.score_windows_batch`) once ``batch_windows`` of
them are pending.

Window completions pop in the order the arrivals of their last packets
would: by time, exact-time ties by link position.  So flush composition and
emission order are those of a packet-by-packet merge, and batching changes
*when* a window is scored, never *what* its score is.  Every event field is
session-local, so the emitted events are byte-for-byte the ones sequential
per-link :meth:`~repro.api.session.StreamingSession.push` would produce —
for any batch size and any link interleaving (under the ``fast`` backend,
within its tolerance).  The flush delay is what the scheduler *measures*:
each ready window records its completion instant, and the
arrival-to-emission latency of every event is reported alongside
throughput.  All timestamps come from the :mod:`repro.obs` clock seam —
wall clock by default, a :class:`~repro.obs.clock.ManualClock` under test —
and feed the stats only, never the events or their digest.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.api.monitor import score_windows_batch
from repro.api.session import DetectionEvent, StreamingSession
from repro.obs.clock import Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.csi.trace import CSITrace

    from repro.fleet.traffic import LinkTraffic


@dataclass(frozen=True)
class ScheduleStats:
    """Throughput/latency measurements of one scheduler run.

    Attributes
    ----------
    arrivals:
        Packets delivered across all links: every arrival of every link's
        schedule, including those after its last completed window.
    windows:
        Monitoring windows completed and scored.
    elapsed_s:
        Wall-clock seconds of the scheduling loop (window-completion merge,
        window gathering, batch scoring).
    latencies_s:
        Arrival-to-emission wall latency of every event, in emission order:
        the delay between a window completing and its event being emitted
        after the batch flush.
    """

    arrivals: int
    windows: int
    elapsed_s: float
    latencies_s: tuple[float, ...]


class FleetScheduler:
    """Merge per-link arrival streams and batch window scoring across links.

    Parameters
    ----------
    batch_windows:
        Ready windows accumulated before a scoring flush.  ``1`` scores
        every window the moment it completes (lowest latency); larger values
        trade latency for vectorization (the batch scorer stacks all
        baseline-detector windows into one NumPy pass).  Events are
        bit-identical for every value.
    clock:
        Time source for the throughput and latency stamps; defaults to the
        active :mod:`repro.obs` clock (wall clock unless a recorder with a
        :class:`~repro.obs.clock.ManualClock` is installed).
    """

    def __init__(
        self, *, batch_windows: int = 32, clock: Clock | None = None
    ) -> None:
        if batch_windows < 1:
            raise ValueError(f"batch_windows must be >= 1, got {batch_windows}")
        self.batch_windows = batch_windows
        self.clock = clock

    def run(
        self, streams: Sequence[tuple[StreamingSession, "LinkTraffic"]]
    ) -> tuple[list[DetectionEvent], ScheduleStats]:
        """Drive every link's traffic through its session, in global time order.

        Sessions are advanced window by window: each completed window is
        gathered from the link's pooled CSI and queued on the session with
        its completion packet count
        (:meth:`~repro.api.session.StreamingSession.queue_window`), so the
        session's frame buffer is not filled.  Every session must be
        calibrated and must not have consumed frames yet; both are checked
        once per link before any window is scored.

        Returns the emitted events (in emission order: window-completion
        order, batched) and the run's :class:`ScheduleStats`.
        """
        for session, _ in streams:
            if not isinstance(session, StreamingSession):
                raise TypeError(
                    f"streams must pair StreamingSessions with traffic, "
                    f"got {type(session).__name__}"
                )
            if not session.is_calibrated:
                raise RuntimeError(
                    f"session {session.link_name!r} must be calibrated before "
                    "it is scheduled"
                )
            if session.packets_seen:
                raise ValueError(
                    f"session {session.link_name!r} has already consumed "
                    f"{session.packets_seen} frames; schedule fresh sessions "
                    "(or reset() them)"
                )
        clock = self.clock if self.clock is not None else obs.active_clock()
        events: list[DetectionEvent] = []
        latencies: list[float] = []
        pending: list[tuple[StreamingSession, "CSITrace", float]] = []

        def flush() -> None:
            if not pending:
                return
            flushed = score_windows_batch([(s, w) for s, w, _ in pending])
            emitted_at = clock.now()
            for _, _, ready_at in pending:
                latency = emitted_at - ready_at
                latencies.append(latency)
                obs.observe("fleet.latency_s", latency)
            events.extend(flushed)
            pending.clear()

        # One heap entry per link with a window still to complete: (arrival
        # time of that window's last packet, link position, its arrival
        # index).  The link position breaks exact-time ties deterministically.
        heap: list[tuple[float, int, int]] = []
        for position, (session, traffic) in enumerate(streams):
            end = session.window_packets - 1
            if end < traffic.num_arrivals:
                heap.append((float(traffic.arrivals[end]), position, end))
        heapq.heapify(heap)

        arrivals = sum(traffic.num_arrivals for _, traffic in streams)
        windows = 0
        started_at = clock.now()
        while heap:
            _, position, end = heapq.heappop(heap)
            session, traffic = streams[position]
            window = traffic.window(end, session.window_packets, label=session.link_name)
            session.queue_window(window, end + 1)
            windows += 1
            pending.append((session, session.pending_window(), clock.now()))
            if len(pending) >= self.batch_windows:
                flush()
            end += session.window_stride
            if end < traffic.num_arrivals:
                heapq.heappush(heap, (float(traffic.arrivals[end]), position, end))
        flush()
        elapsed = clock.now() - started_at
        obs.count("fleet.arrivals", arrivals)
        obs.count("fleet.windows", windows)
        return events, ScheduleStats(
            arrivals=arrivals,
            windows=windows,
            elapsed_s=elapsed,
            latencies_s=tuple(latencies),
        )
