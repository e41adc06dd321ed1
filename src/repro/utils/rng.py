"""Deterministic random-number management.

Every stochastic component in the library (weight init, data generation,
shuffling, attack random starts) draws from an explicitly passed
``numpy.random.Generator`` so that experiments are reproducible end-to-end.
This module provides helpers for creating and splitting generators.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["make_rng", "spawn_rngs", "ensure_rng"]

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a new generator from an optional integer seed."""
    return np.random.default_rng(seed)


def ensure_rng(rng: RngLike) -> np.random.Generator:
    """Coerce ``rng`` (seed, generator or None) to a generator.

    Passing an existing generator returns it unchanged so that callers can
    thread a single stream through a pipeline.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_rngs(rng: RngLike, count: int) -> list:
    """Split a generator into ``count`` independent child generators.

    Child streams are derived via ``spawn`` on the underlying bit
    generator's seed sequence, guaranteeing statistical independence.
    """
    parent = ensure_rng(rng)
    seeds = parent.bit_generator.seed_seq.spawn(count)
    return [np.random.Generator(np.random.PCG64(s)) for s in seeds]
