"""Seeded random number generation.

All stochastic routines in this package draw from the counter-based
Philox (4x64) bit generator, seeded through ``numpy.random.SeedSequence``.
Philox is fully specified and platform-independent, so a given integer
seed reproduces the exact same stream on every machine and thread count.
Independent substreams (per attempt, per trial) are derived with
``SeedSequence.spawn``, never by incrementing seeds.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | np.random.SeedSequence


def seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Seed sequence for ``seed``; a given ``SeedSequence`` is copied, never advanced.

    ``spawn`` on the copy leaves the caller's object as it was, so the
    same object passed twice gives the same substreams both times.  A
    negative integer seed is refused by name.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned,
        )
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed)


def generator(seed: SeedLike) -> np.random.Generator:
    """Philox generator for the given seed or seed sequence."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed)))


def split(seed: SeedLike, k: int) -> list[np.random.SeedSequence]:
    """Derive ``k`` independent child seed sequences."""
    return seed_sequence(seed).spawn(k)
