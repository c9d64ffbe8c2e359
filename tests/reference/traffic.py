"""One link's traffic built on its own, the reference for ``build_fleet_traffic``.

The private helpers are looked up on :mod:`repro.fleet.traffic` at call
time, so a test that patches one (say ``_link_simulator``) patches both
builders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.csi.trace import CSITrace
from repro.fleet import traffic
from repro.fleet.traffic import LinkTraffic, derive_link_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import PipelineConfig
    from repro.channel.channel import Link


def build_link_traffic(
    link_index: int,
    link: "Link",
    *,
    seed: int,
    pipeline: "PipelineConfig",
    duration_s: float,
    pool_packets: int,
    occupied_fraction: float,
    class_mix: Mapping[str, float],
    class_rates_hz: Mapping[str, float],
) -> LinkTraffic:
    """Synthesise one link's traffic from the fleet seed and its index.

    Every random stream (class assignment, arrival schedule, channel
    impairments, collector draws) is derived from ``(seed, link_index)``
    alone — see :func:`derive_link_seed` — so the
    same link is byte-identical no matter which worker builds it or how
    large the population is.
    """
    class_rng, arrivals_rng, channel_rng, collector_rng = traffic._link_streams(
        derive_link_seed(seed, link_index), "class", "arrivals", "channel", "collector"
    )
    profile, arrivals = traffic._link_schedule(
        link_index,
        link,
        class_rng,
        arrivals_rng,
        duration_s=duration_s,
        class_mix=class_mix,
        class_rates_hz=class_rates_hz,
    )
    simulator = traffic._link_simulator(link, int(channel_rng.integers(0, 2**31 - 1)))
    collector = pipeline.collector(simulator, rng=collector_rng)
    calibration = collector.collect(
        None,
        num_packets=pipeline.calibration_packets,
        label=f"{profile.name}/calibration",
    )

    empty_packets, occupied_packets = traffic._pool_split(pool_packets, occupied_fraction)
    pools: list[CSITrace] = []
    if empty_packets:
        pools.append(collector.collect(None, num_packets=empty_packets))
    if occupied_packets:
        pools.append(
            collector.collect([traffic._occupied_scene(link)], num_packets=occupied_packets)
        )
    return LinkTraffic(
        profile=profile,
        arrivals=arrivals,
        calibration=calibration,
        pool_csi=np.concatenate([trace.csi for trace in pools], axis=0),
        pool_occupied=traffic._pool_occupancy(empty_packets, occupied_packets),
        subcarrier_indices=calibration.subcarrier_indices,
    )
