"""Per-packet impairment draws: one :meth:`ImpairmentModel.apply` per packet.

:class:`~repro.channel.noise.ImpairmentDrawPlan` is the only production
impairment path; these loops call the per-packet reference model directly so
the parity tests compare the plan against it, not against itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.channel.channel import ChannelSimulator
from repro.channel.geometry import Point
from repro.channel.human import HumanBody


def impair(
    simulator: ChannelSimulator, clean: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One impaired packet of *clean*, drawn by the per-packet reference model."""
    return simulator.impairments.apply(clean, simulator.subcarrier_indices, seed=rng)


def sample_trajectory(
    simulator: ChannelSimulator,
    positions: Sequence[Point],
    rng: np.random.Generator,
    *,
    body: HumanBody | None = None,
    background: Sequence[HumanBody] = (),
) -> np.ndarray:
    """The historical ``sample_trajectory``: one ``apply`` per position, in order."""
    template = body if body is not None else HumanBody(position=simulator.link.midpoint())
    scenes = [[template.moved_to(position), *background] for position in positions]
    cleans = simulator.clean_cfr_batch(scenes)
    return np.asarray([impair(simulator, clean, rng) for clean in cleans])
