"""Synthetic fleet traffic: deterministic Poisson packet arrivals per link.

A production deployment is thousands of independent links with ragged packet
schedules, not the handful of lockstep streams the evaluation campaign
drives.  This module synthesises that traffic: every link of the population
draws from its own seeded streams — rate class, Poisson arrival process and
channel/collector randomness — all derived from the fleet seed and the link
index alone.  Any subset of the population can therefore be rebuilt on any
worker in any order and produce byte-identical traffic, which is what makes
the sharded fleet engine deterministic.

The population is heterogeneous in the FAIRSERVE workload-generator style:
links belong to rate classes (``normal`` / ``busy`` / ``abusive``) drawn from
a configured mix, and each class pings at its own Poisson rate.  The CSI a
link reports comes from the paper's channel simulator: a per-link calibration
capture of the empty environment plus a pool of monitoring packets split
between empty and occupied scenes, cycled over the arrival schedule so the
link alternates idle and occupied bursts.

:func:`build_fleet_traffic` synthesises a shard's links as one batched
program — clean CFRs once per geometry, one shared impairment plan per chunk
of links — byte-identical per link to collecting each link's captures on its
own, which the parity suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import obs
from repro.channel.channel import ChannelSimulator
from repro.channel.human import HumanBody
from repro.channel.noise import ImpairmentModel
from repro.channel.propagation import PropagationModel
from repro.csi.format import CSIFrame
from repro.csi.trace import CSITrace
from repro.experiments.scenarios import human_grid
from repro.utils.rng import derive_rngs, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link

    from repro.api.config import PipelineConfig

#: Link rate classes, in mix-assignment order (FAIRSERVE's population shape:
#: mostly normal links, a busy tier, a small abusive tail).
RATE_CLASSES: tuple[str, ...] = ("normal", "busy", "abusive")


def derive_link_seed(seed: int, link_index: int) -> int:
    """The deterministic per-link seed of a fleet.

    Same convention as :func:`repro.experiments.runner.derive_case_seed`
    (``seed + 1000 * index``): every link's traffic is a pure function of the
    fleet seed and its index, independent of population size, build order and
    worker sharding.
    """
    return seed + 1000 * link_index


def _link_streams(link_seed: int, *keys: str) -> list[np.random.Generator]:
    """Named, order-independent random streams of a link, one per key.

    Every stream derives from the same fresh generator of the link seed via
    :func:`~repro.utils.rng.derive_rngs`, so the streams are mutually
    independent and adding a new stream never shifts the draws of an
    existing one.
    """
    return derive_rngs(ensure_rng(link_seed), keys)


def poisson_arrival_times(
    rng: np.random.Generator, rate_hz: float, duration_s: float
) -> np.ndarray:
    """Strictly increasing Poisson arrival times in ``[0, duration_s)``.

    Inter-arrival gaps are exponential with mean ``1/rate_hz``; gaps are
    drawn in chunks purely for speed — the draw sequence (and therefore the
    schedule) depends only on the generator state.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    chunk = max(16, int(rate_hz * duration_s * 1.2) + 16)
    segments: list[np.ndarray] = []
    last = 0.0
    while last < duration_s:
        gaps = rng.exponential(1.0 / rate_hz, size=chunk)
        segment = last + np.cumsum(gaps)
        segments.append(segment)
        last = float(segment[-1])
    times = np.concatenate(segments)
    return times[times < duration_s]


def assign_rate_class(
    rng: np.random.Generator, class_mix: Mapping[str, float]
) -> str:
    """Draw one link's rate class from the population mix.

    Classes are laid out in :data:`RATE_CLASSES` order and selected by a
    single uniform draw against the cumulative (normalised) mix, so the
    assignment is deterministic per link stream.
    """
    names = [name for name in RATE_CLASSES if class_mix.get(name, 0.0) > 0]
    weights = np.asarray([class_mix[name] for name in names], dtype=float)
    cumulative = np.cumsum(weights) / weights.sum()
    draw = rng.random()
    return names[int(np.searchsorted(cumulative, draw, side="right").clip(0, len(names) - 1))]


@dataclass(frozen=True)
class LinkProfile:
    """Static description of one fleet link.

    Attributes
    ----------
    index:
        Position of the link in the population (also its seed key).
    name:
        Stable link id stamped on emitted events (``link-00042``).
    rate_class:
        Rate class drawn from the population mix.
    packet_rate_hz:
        Mean Poisson ping rate of that class.
    case_name:
        Name of the evaluation link geometry the link re-uses.
    """

    index: int
    name: str
    rate_class: str
    packet_rate_hz: float
    case_name: str


class LinkTraffic:
    """One link's complete synthetic traffic: schedule, calibration and CSI.

    Parameters
    ----------
    profile:
        The link's static description.
    arrivals:
        Strictly increasing packet arrival times in seconds.
    calibration:
        Empty-environment capture used to calibrate the link's session.
    pool_csi:
        Complex array of shape ``(pool, antennas, subcarriers)``; arrival
        ``i`` reports frame ``i % pool``, so the link cycles through an
        idle burst followed by an occupied burst.  The pool is validated
        once here (3-D, finite, one column per grid subcarrier), so the
        windows :meth:`window` gathers from it need no per-packet checks.
    pool_occupied:
        Ground-truth occupancy per pool frame.
    subcarrier_indices:
        Frequency grid shared by every frame.
    """

    def __init__(
        self,
        profile: LinkProfile,
        arrivals: np.ndarray,
        calibration: CSITrace,
        pool_csi: np.ndarray,
        pool_occupied: np.ndarray,
        subcarrier_indices: tuple[int, ...],
    ) -> None:
        if pool_csi.ndim != 3 or pool_csi.shape[0] < 1:
            raise ValueError(
                f"pool_csi must be (pool, antennas, subcarriers) with at "
                f"least one frame, got shape {pool_csi.shape}"
            )
        if pool_csi.shape[2] != len(subcarrier_indices):
            raise ValueError(
                f"pool_csi has {pool_csi.shape[2]} subcarriers but "
                f"{len(subcarrier_indices)} indices were provided"
            )
        if not np.all(np.isfinite(pool_csi)):
            raise ValueError("pool_csi contains non-finite values")
        if pool_occupied.shape != (pool_csi.shape[0],):
            raise ValueError(
                f"pool_occupied has shape {pool_occupied.shape}, expected "
                f"({pool_csi.shape[0]},)"
            )
        self.profile = profile
        self.arrivals = np.asarray(arrivals, dtype=float)
        self.calibration = calibration
        self.pool_csi = pool_csi
        self.pool_occupied = pool_occupied
        self.subcarrier_indices = subcarrier_indices

    @property
    def num_arrivals(self) -> int:
        """Packets this link delivers over the fleet run."""
        return int(self.arrivals.shape[0])

    def frame(self, index: int) -> CSIFrame:
        """The *index*-th arriving packet as a :class:`CSIFrame`."""
        return CSIFrame(
            csi=self.pool_csi[index % self.pool_csi.shape[0]],
            timestamp=float(self.arrivals[index]),
            sequence_number=index,
            subcarrier_indices=self.subcarrier_indices,
        )

    def window(self, end: int, window_packets: int, *, label: str = "") -> CSITrace:
        """The *window_packets* arrivals ending at arrival *end*, as one trace.

        Equal to ``CSITrace.from_frames`` over ``frame(end - window_packets
        + 1)`` .. ``frame(end)``, built from one gather of pool rows and one
        slice of the schedule instead of a validated frame per packet.
        """
        start = end - window_packets + 1
        if window_packets < 1 or start < 0 or end >= self.num_arrivals:
            raise IndexError(
                f"window of {window_packets} packets ending at arrival {end} "
                f"is outside the link's {self.num_arrivals} arrivals"
            )
        return CSITrace(
            csi=np.take(self.pool_csi, np.arange(start, end + 1), axis=0, mode="wrap"),
            timestamps=self.arrivals[start : end + 1],
            subcarrier_indices=self.subcarrier_indices,
            label=label,
        )

    def occupied_at(self, index: int) -> bool:
        """Ground-truth occupancy of the *index*-th packet's scene."""
        return bool(self.pool_occupied[index % self.pool_csi.shape[0]])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(link={self.profile.name!r}, "
            f"class={self.profile.rate_class!r}, "
            f"rate={self.profile.packet_rate_hz}Hz, "
            f"arrivals={self.num_arrivals})"
        )


#: Packets one shared impairment plan of :func:`build_fleet_traffic` holds
#: before it is applied.  Bounds the plan's draw buffer and the temporaries
#: of its ``apply()`` (each ~1.5 KB per packet on the 3x30 grid), so set-up
#: memory does not grow with the shard beyond the traffic itself.
_PLAN_PACKET_BUDGET = 4096


def _link_simulator(link: "Link", seed: int) -> ChannelSimulator:
    """The channel simulator a fleet link samples its CSI from."""
    return ChannelSimulator(
        link, propagation=PropagationModel(tx_power=link.tx_power), seed=seed
    )


def _pool_split(pool_packets: int, occupied_fraction: float) -> tuple[int, int]:
    """``(empty, occupied)`` packet counts of a link's monitoring pool."""
    occupied = min(max(int(round(pool_packets * occupied_fraction)), 0), pool_packets)
    return pool_packets - occupied, occupied


def _pool_occupancy(empty_packets: int, occupied_packets: int) -> np.ndarray:
    return np.concatenate(
        [np.zeros(empty_packets, dtype=bool), np.ones(occupied_packets, dtype=bool)]
    )


def _occupied_scene(link: "Link") -> HumanBody:
    """The person of a link's occupied pool scene: mid-grid."""
    grid = human_grid(link)
    return HumanBody(position=grid[len(grid) // 2])


def _link_schedule(
    link_index: int,
    link: "Link",
    class_rng: np.random.Generator,
    arrivals_rng: np.random.Generator,
    *,
    duration_s: float,
    class_mix: Mapping[str, float],
    class_rates_hz: Mapping[str, float],
) -> tuple[LinkProfile, np.ndarray]:
    """A link's profile (its rate class drawn) and its arrival schedule."""
    rate_class = assign_rate_class(class_rng, class_mix)
    profile = LinkProfile(
        index=link_index,
        name=f"link-{link_index:05d}",
        rate_class=rate_class,
        packet_rate_hz=float(class_rates_hz[rate_class]),
        case_name=getattr(link, "name", "") or "",
    )
    arrivals = poisson_arrival_times(arrivals_rng, profile.packet_rate_hz, duration_s)
    return profile, arrivals


@dataclass
class _PlanGroup:
    """Geometries whose links can draw into one shared impairment plan.

    A plan fixes the impairment model and the subcarrier grid (and so the
    CSI shape); candidates ``2g`` / ``2g + 1`` are geometry ``g``'s empty
    and occupied clean CFRs.
    """

    model: ImpairmentModel
    subcarrier_indices: np.ndarray
    cleans: list[np.ndarray] = field(default_factory=list)
    positions: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class _Geometry:
    """One link geometry of a shard.

    Holds the geometry's simulator, its plan group and the index of its
    empty-scene candidate in that group's plans (the occupied scene is the
    next candidate).
    """

    simulator: ChannelSimulator
    group: _PlanGroup
    first_candidate: int


def build_fleet_traffic(
    indices: Sequence[int],
    links: Sequence["Link"],
    *,
    seed: int,
    pipeline: "PipelineConfig",
    duration_s: float,
    pool_packets: int,
    occupied_fraction: float,
    class_mix: Mapping[str, float],
    class_rates_hz: Mapping[str, float],
) -> list[LinkTraffic]:
    """Synthesise many links' traffic as one batched impairment program.

    Byte-identical per link to building each link on its own — its own
    simulator seeded from the link's "channel" stream, then one
    :meth:`~repro.csi.collector.PacketCollector.collect` per capture (the
    parity suite pins it) — at a fraction of the cost for realistic
    populations:

    * Links reuse a handful of evaluation-case geometries, so the clean CFRs
      (one empty, one occupied scene per geometry) are synthesised once per
      *geometry* — one :meth:`~repro.channel.channel.ChannelSimulator.clean_cfr_batch`
      call each — instead of once per link.  Sharing a simulator across links
      is byte-safe because the collect path never consumes the simulator's
      own RNG: all per-packet randomness comes from each link's "collector"
      stream.  (The "channel" stream is independent of every other, so not
      consuming it changes no other draw.)
    * Geometries sharing an impairment model and subcarrier grid form one
      group, and the group's links draw into one shared
      :class:`~repro.channel.noise.ImpairmentDrawPlan` per chunk of links.
      Each link's three captures (calibration, empty pool, occupied pool)
      are drawn from its own "collector" stream by
      :meth:`~repro.csi.collector.PacketCollector.draw_windows` in exactly
      the sequential per-capture order — two generator calls per packet —
      so which links share a plan changes no draw.
    * Chunks hold at most ``_PLAN_PACKET_BUDGET`` packets (at least one
      link).  Each gets a single ``plan.apply()``, and every link's
      calibration trace and monitoring pool are views of the chunk's array.

    *links* holds the geometry of each entry of *indices*, aligned
    one-to-one (entries may repeat — they are deduplicated by identity).
    """
    if len(links) != len(indices):
        raise ValueError(
            f"got {len(links)} links for {len(indices)} link indices"
        )
    empty_packets, occupied_packets = _pool_split(pool_packets, occupied_fraction)
    calibration_packets = pipeline.calibration_packets
    # A link's captures in collection order: (scene, packets),
    # scene 0 the empty room and 1 the occupied one.
    windows = [(0, calibration_packets), (0, empty_packets), (1, occupied_packets)]
    scenes = [scene for scene, count in windows if count]
    counts = [count for _, count in windows if count]
    link_packets = calibration_packets + pool_packets
    pool_occupied = _pool_occupancy(empty_packets, occupied_packets)

    geometries: dict[int, _Geometry] = {}
    groups: dict[tuple, _PlanGroup] = {}
    with obs.span("collect.batch_synthesize"):
        for position, link in enumerate(links):
            geometry = geometries.get(id(link))
            if geometry is None:
                simulator = _link_simulator(link, seed=0)
                cleans = simulator.clean_cfr_batch([None, [_occupied_scene(link)]])
                key = (
                    simulator.impairments,
                    simulator.subcarrier_indices.tobytes(),
                    cleans.shape,
                )
                group = groups.setdefault(
                    key, _PlanGroup(simulator.impairments, simulator.subcarrier_indices)
                )
                geometry = _Geometry(simulator, group, 2 * len(group.cleans))
                group.cleans.append(cleans)
                geometries[id(link)] = geometry
            geometry.group.positions.append(position)

    built: dict[int, LinkTraffic] = {}
    links_per_plan = max(1, _PLAN_PACKET_BUDGET // link_packets)
    for group in groups.values():
        candidates = np.concatenate(group.cleans)
        for first in range(0, len(group.positions), links_per_plan):
            chunk = group.positions[first : first + links_per_plan]
            plan = group.model.draw_plan(
                candidates, group.subcarrier_indices, num_packets=len(chunk) * link_packets
            )
            drawn = []
            for position in chunk:
                link_index, link = indices[position], links[position]
                class_rng, arrivals_rng, collector_rng = _link_streams(
                    derive_link_seed(seed, link_index), "class", "arrivals", "collector"
                )
                with obs.span("collect.plan"):
                    profile, arrivals = _link_schedule(
                        link_index,
                        link,
                        class_rng,
                        arrivals_rng,
                        duration_s=duration_s,
                        class_mix=class_mix,
                        class_rates_hz=class_rates_hz,
                    )
                geometry = geometries[id(link)]
                collector = pipeline.collector(geometry.simulator, rng=collector_rng)
                timestamps = collector.draw_windows(
                    plan, [geometry.first_candidate + scene for scene in scenes], counts
                )
                drawn.append((position, profile, arrivals, timestamps))
            with obs.span("collect.impair"):
                csi = plan.apply()
            obs.count("collect.packets", plan.num_drawn)
            for k, (position, profile, arrivals, timestamps) in enumerate(drawn):
                link_csi = csi[k * link_packets : (k + 1) * link_packets]
                calibration = CSITrace(
                    csi=link_csi[:calibration_packets],
                    timestamps=timestamps[:calibration_packets],
                    label=f"{profile.name}/calibration",
                )
                built[position] = LinkTraffic(
                    profile=profile,
                    arrivals=arrivals,
                    calibration=calibration,
                    pool_csi=link_csi[calibration_packets:],
                    pool_occupied=pool_occupied.copy(),
                    subcarrier_indices=calibration.subcarrier_indices,
                )
    return [built[position] for position in range(len(indices))]
