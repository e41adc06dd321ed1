"""Weight-initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is deterministic given a seed.  Arrays are emitted in the
active precision policy's compute dtype (:mod:`repro.runtime`); sampling
itself always happens in float64 so that a given seed produces the same
weights (up to rounding) at every precision.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..runtime import compute_dtype
from ..utils.rng import RngLike, ensure_rng

__all__ = ["uniform", "kaiming_uniform", "compute_fans"]


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for dense or convolutional weights.

    Dense weights are ``(in, out)``; conv weights are
    ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def uniform(shape, low: float, high: float, rng: RngLike = None) -> np.ndarray:
    """Uniform samples in ``[low, high)`` in the policy compute dtype."""
    samples = ensure_rng(rng).uniform(low, high, size=shape)
    return samples.astype(compute_dtype(), copy=False)


def kaiming_uniform(shape, rng: RngLike = None) -> np.ndarray:
    """He uniform, appropriate for ReLU networks."""
    fan_in, _fan_out = compute_fans(tuple(shape))
    bound = np.sqrt(6.0 / fan_in)
    return uniform(shape, -bound, bound, rng=rng)
