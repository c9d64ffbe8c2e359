"""Seeded random-number-generator helpers.

Every stochastic component of the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  Centralising the
coercion here keeps experiments reproducible: a single integer seed at the top
of an experiment deterministically derives the seeds of every sub-component.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an ``int`` for a deterministic
        generator, or an existing generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)  # repro: allow-det002 -- this IS the canonical construction seam every other module must route through


def derive_rng(rng: np.random.Generator, *keys: Union[int, str]) -> np.random.Generator:
    """Derive an independent child generator from *rng* and a key sequence.

    The derivation is deterministic given the parent generator state and the
    keys, which lets large experiments hand out per-packet or per-location
    streams without the components interfering with one another.

    Parameters
    ----------
    rng:
        Parent generator.  Its state is advanced by exactly one ``integers``
        draw.
    keys:
        Arbitrary integers or strings identifying the child stream (for
        example ``derive_rng(rng, "packet", 17)``).
    """
    return _child_rng(int(rng.integers(0, 2**31 - 1)), keys)


def derive_rngs(
    rng: np.random.Generator, keys: Sequence[Union[int, str]]
) -> list[np.random.Generator]:
    """Derive one child generator per key from a single parent draw.

    ``derive_rngs(rng, keys)[i]`` equals ``derive_rng(copy, keys[i])`` for
    identical copies of *rng*: every child is keyed off the same parent
    draw, which advances *rng* once in total instead of once per child.
    """
    base = int(rng.integers(0, 2**31 - 1))
    return [_child_rng(base, (key,)) for key in keys]


def _child_rng(base: int, keys: Sequence[Union[int, str]]) -> np.random.Generator:
    material = [base]
    for key in keys:
        if isinstance(key, str):
            material.append(sum(ord(c) * (i + 1) for i, c in enumerate(key)) % (2**31 - 1))
        else:
            material.append(int(key) % (2**31 - 1))
    seed_seq = np.random.SeedSequence(material)  # repro: allow-det002 -- canonical child-stream derivation (the seam the contract routes through)
    return np.random.default_rng(seed_seq)  # repro: allow-det002 -- canonical child-stream derivation (the seam the contract routes through)


def spawn_children(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create *count* independent generators from a single seed.

    Useful for embarrassingly parallel sweeps (one generator per human
    location, per link case, …) where the iteration order must not influence
    the drawn values.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(0, 2**31 - 1))
    seq = np.random.SeedSequence(seed)  # repro: allow-det002 -- canonical fan-out of independent generators (the seam the contract routes through)
    return [np.random.default_rng(child) for child in seq.spawn(count)]  # repro: allow-det002 -- canonical fan-out of independent generators (the seam the contract routes through)
