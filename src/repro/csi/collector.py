"""Packet collection: sampling the channel simulator like a pinging receiver.

In the paper's testbed the receiver pings the AP at 50 packets per second and
the CSI tool reports one CSI group per received packet.  The
:class:`PacketCollector` reproduces that acquisition loop on top of a
:class:`~repro.channel.channel.ChannelSimulator`, producing
:class:`~repro.csi.trace.CSITrace` objects with realistic timestamps and
optional packet loss.

Within one monitoring window the scene is static, so the clean CFR is
computed once per window and only the per-packet randomness runs in the
acquisition loop, :meth:`PacketCollector.draw_windows`.  It consumes the
collector's RNG stream in exactly the order of the historical per-packet
path — loss draw, then impairment draws, per ping — drawing into an
:class:`~repro.channel.noise.ImpairmentDrawPlan` at two generator calls per
packet, with each lossless window one tight burst.  Applying the plan is
separate from drawing into it: :meth:`~PacketCollector.collect` and
:meth:`~PacketCollector.collect_batch` apply their own plan and slice it
into traces, while the fleet builder draws many links' windows (each from
its own collector stream) into one shared plan and applies it once.
Collected traces are bit-identical to the uncached implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.channel.channel import ChannelSimulator
from repro.channel.constants import DEFAULT_PACKET_RATE_HZ
from repro.channel.geometry import Point
from repro.channel.human import HumanBody
from repro.channel.noise import ImpairmentDrawPlan
from repro.csi.trace import CSITrace
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_probability

#: Consecutive lost pings after which collection aborts.  With the validated
#: ``loss_probability < 1`` this is astronomically unlikely to trigger for any
#: sane configuration (p = 0.999 reaches it with probability ~1e-44); it
#: exists to turn a mis-modelled loss process into a clear error instead of a
#: silent near-infinite loop.
MAX_CONSECUTIVE_LOSSES = 100_000


@dataclass
class PacketCollector:
    """Collect CSI traces from a simulated link at a fixed packet rate.

    Parameters
    ----------
    simulator:
        The channel simulator standing in for the AP/NIC pair.
    packet_rate_hz:
        Ping rate; the paper uses 50 packets per second.
    loss_probability:
        Independent probability that a ping is lost (no CSI reported).  Losses
        shift subsequent timestamps exactly as they would on hardware.  Must
        be strictly below 1: with certain loss no capture can ever complete.
    seed:
        Seed for the loss process and per-packet impairments.
    rng:
        Explicit generator for the loss process and impairments; takes
        precedence over *seed*.  Passing the same generator to several
        collectors (or other components) makes them share one stream,
        mirroring :func:`repro.utils.rng.ensure_rng` usage elsewhere.
    """

    simulator: ChannelSimulator
    packet_rate_hz: float = DEFAULT_PACKET_RATE_HZ
    loss_probability: float = 0.0
    seed: SeedLike = None
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if self.packet_rate_hz <= 0:
            raise ValueError(f"packet_rate_hz must be > 0, got {self.packet_rate_hz}")
        check_probability(
            "loss_probability",
            self.loss_probability,
            exclusive_upper=True,
            reason="with certain loss a fixed-size capture never completes",
        )
        if self.rng is not None and not isinstance(self.rng, np.random.Generator):
            raise TypeError(
                f"rng must be a numpy.random.Generator, got {type(self.rng).__name__}"
            )
        self._rng = self.rng if self.rng is not None else ensure_rng(self.seed)

    # ------------------------------------------------------------------ #
    # loss process
    # ------------------------------------------------------------------ #
    def _ping_lost(self, consecutive_losses: int) -> bool:
        """One loss draw; raise if the loss streak exceeds the retry cap."""
        if self.loss_probability <= 0:
            return False
        if self._rng.random() >= self.loss_probability:
            return False
        if consecutive_losses + 1 >= MAX_CONSECUTIVE_LOSSES:
            raise RuntimeError(
                f"aborting capture: {MAX_CONSECUTIVE_LOSSES} consecutive pings "
                f"lost at loss_probability={self.loss_probability}; the loss "
                "process never delivers packets"
            )
        return True

    # ------------------------------------------------------------------ #
    # static scenes
    # ------------------------------------------------------------------ #
    def collect(
        self,
        humans: Sequence[HumanBody] | HumanBody | None = None,
        *,
        num_packets: int,
        label: str = "",
        start_time: float = 0.0,
    ) -> CSITrace:
        """Collect *num_packets* received packets for a static scene.

        Lost pings are skipped (they consume time but produce no CSI), so the
        returned trace always contains exactly *num_packets* frames, matching
        how a fixed-size capture is gathered on hardware.

        The scene is static within the capture, so the clean CFR is
        synthesized once; :meth:`draw_windows` only *draws* the per-packet
        randomness (loss draw, then impairment draws, per ping — exactly the
        sequential RNG consumption order) and the impairment arithmetic runs
        once for the whole window, array at a time.  Traces are
        bit-identical to sampling every packet from scratch at a fraction of
        the cost.
        """
        if num_packets < 1:
            raise ValueError(f"num_packets must be >= 1, got {num_packets}")
        with obs.span("collect.synthesize"):
            clean = self.simulator.clean_cfr(humans)
            plan = self.simulator.impairment_plan(clean, num_packets=num_packets)
        with obs.span("collect.impair"):
            timestamps = self.draw_windows(plan, [0], [num_packets], start_time=start_time)
            csi = plan.apply()
        obs.count("collect.packets", num_packets)
        return CSITrace(csi=csi, timestamps=timestamps, label=label)

    def collect_batch(
        self,
        cleans: np.ndarray,
        counts: Sequence[int],
        *,
        labels: Sequence[str] | None = None,
        start_time: float = 0.0,
    ) -> list[CSITrace]:
        """Collect several static-scene windows through one impairment plan.

        Byte-identical to calling :meth:`collect` once per window with the
        corresponding clean CFR: the windows share a single
        :class:`~repro.channel.noise.ImpairmentDrawPlan` (candidate ``w`` =
        window ``w``), :meth:`draw_windows` walks them in order making
        exactly the sequential path's generator calls, and the impairment
        arithmetic then runs once for all windows in one vectorised
        ``plan.apply()`` sliced back into per-window traces.

        Parameters
        ----------
        cleans:
            Clean CFRs, shape ``(windows, antennas, subcarriers)`` — one
            static scene per requested window (entries may repeat).
        counts:
            Received packets per window, one entry per clean; all >= 1.
        labels:
            Optional per-window trace labels (default ``""``).
        start_time:
            Time origin of every window (matching ``collect``'s default of
            ``0.0`` per call).
        """
        cleans = np.asarray(cleans, dtype=complex)
        if cleans.ndim != 3:
            raise ValueError(
                f"cleans must have shape (windows, antennas, subcarriers), "
                f"got {cleans.shape}"
            )
        counts = [int(count) for count in counts]
        if len(counts) != cleans.shape[0]:
            raise ValueError(
                f"got {len(counts)} packet counts for {cleans.shape[0]} windows"
            )
        if any(count < 1 for count in counts):
            raise ValueError(f"every window needs >= 1 packets, got {counts}")
        if labels is not None and len(labels) != len(counts):
            raise ValueError(
                f"got {len(labels)} labels for {len(counts)} windows"
            )
        total = sum(counts)
        with obs.span("collect.synthesize"):
            plan = self.simulator.impairment_plan(cleans, num_packets=total)
        with obs.span("collect.impair"):
            timestamps = self.draw_windows(
                plan, range(len(counts)), counts, start_time=start_time
            )
            csi = plan.apply()
        obs.count("collect.packets", total)
        traces: list[CSITrace] = []
        offset = 0
        for window, count in enumerate(counts):
            traces.append(
                CSITrace(
                    csi=csi[offset : offset + count],
                    timestamps=timestamps[offset : offset + count],
                    label=labels[window] if labels is not None else "",
                )
            )
            offset += count
        return traces

    def draw_windows(
        self,
        plan: ImpairmentDrawPlan,
        candidates: Iterable[int],
        counts: Sequence[int],
        *,
        start_time: float = 0.0,
    ) -> np.ndarray:
        """The acquisition loop: draw static-scene windows into *plan*.

        Window ``w`` receives ``counts[w]`` packets of plan candidate
        ``candidates[w]``, appended to the plan in window order.  Per ping
        the collector's generator makes the loss draw, then the packet's
        impairment draws, with the loss streak and the time axis restarting
        at *start_time* for every window — exactly what one :meth:`collect`
        call per window does.  Without packet loss there are no loss draws
        to interleave, so each window is one tight
        :meth:`~repro.channel.noise.ImpairmentDrawPlan.draw_next` burst.

        The plan may be shared with other collectors (each drawing from its
        own stream); applying it is left to the caller.  Returns the
        received packets' timestamps, concatenated in window order.
        """
        interval = 1.0 / self.packet_rate_hz
        timestamps = np.empty(sum(counts), dtype=float)
        offset = 0
        for candidate, count in zip(candidates, counts):
            end = offset + count
            if self.loss_probability <= 0:
                # A running sum, so every stamp is bit-identical to repeated
                # t += interval.
                steps = np.full(count + 1, interval)
                steps[0] = start_time
                timestamps[offset:end] = np.cumsum(steps)[1:]
                plan.draw_next(self._rng, candidate, count)
                offset = end
                continue
            t = start_time
            consecutive_losses = 0
            while offset < end:
                t += interval
                if self._ping_lost(consecutive_losses):
                    consecutive_losses += 1
                    continue
                consecutive_losses = 0
                timestamps[offset] = t
                plan.draw_next(self._rng, candidate)
                offset += 1
        return timestamps

    def collect_empty(self, *, num_packets: int, label: str = "empty") -> CSITrace:
        """Collect a static (no human) profile trace."""
        return self.collect(None, num_packets=num_packets, label=label)

    # ------------------------------------------------------------------ #
    # moving scenes
    # ------------------------------------------------------------------ #
    def collect_walk(
        self,
        positions: Sequence[Point],
        *,
        body: HumanBody | None = None,
        background: Sequence[HumanBody] = (),
        label: str = "walk",
        start_time: float = 0.0,
    ) -> CSITrace:
        """Collect packets for a person walking along a trajectory.

        The trajectory should already be sampled at the packet rate (use
        :func:`repro.experiments.workloads.walking_trajectory`); each ping
        sees the person at the corresponding position.

        The loss process is the same as :meth:`collect`: a lost ping consumes
        its trajectory position (the person keeps walking) and shifts
        subsequent timestamps, but produces no CSI.  With loss enabled the
        returned trace therefore holds *fewer* packets than positions — the
        walk is bounded in time, unlike a fixed-size static capture.  With
        ``loss_probability=0`` there is exactly one packet per position.

        All per-position clean CFRs are synthesised up front in one
        :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch` pass
        (the background bodies are shared across scenes), and the per-packet
        impairments are batched the same way as :meth:`collect`: the loop
        only draws randomness (loss draw, then impairment draws, per ping —
        the exact historical order) and the arithmetic runs once for all
        received packets.  The trace is bit-identical to the per-position
        loop — a lost ping's pre-computed CFR is simply discarded, just as
        the loop never computed it.
        """
        if not positions:
            raise ValueError("positions must contain at least one point")
        interval = 1.0 / self.packet_rate_hz
        template = (
            body if body is not None else HumanBody(position=self.simulator.link.midpoint())
        )
        background = list(background)
        with obs.span("collect.synthesize"):
            scenes = [
                [template.moved_to(position), *background] for position in positions
            ]
            cleans = self.simulator.clean_cfr_batch(scenes)
            plan = self.simulator.impairment_plan(cleans)
        timestamps = []
        t = start_time
        with obs.span("collect.impair"):
            for i in range(len(scenes)):
                t += interval
                if self._ping_lost(0):
                    continue
                plan.draw_next(self._rng, candidate=i)
                timestamps.append(t)
            if plan.num_drawn == 0:
                raise RuntimeError(
                    f"every ping of the {len(positions)}-position walk was lost "
                    f"(loss_probability={self.loss_probability}); no CSI collected"
                )
            csi = plan.apply()
        obs.count("collect.packets", plan.num_drawn)
        return CSITrace(csi=csi, timestamps=np.asarray(timestamps), label=label)
