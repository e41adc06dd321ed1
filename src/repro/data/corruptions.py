"""Common-corruption transforms (Hendrycks & Dietterich style).

Non-adversarial robustness is the natural companion measurement to the
paper's adversarial evaluation: a defense that catastrophically fails
under benign noise/blur has overfit to the attack.  Each corruption takes
an NCHW batch in ``[0, 1]`` and returns a corrupted batch in ``[0, 1]``,
with ``severity`` in 1..5 following the CIFAR-C convention.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from ..runtime import ensure_float_array
from ..utils.rng import RngLike, ensure_rng

__all__ = [
    "gaussian_noise",
    "shot_noise",
    "impulse_noise",
    "gaussian_blur",
    "contrast",
    "brightness",
    "pixelate",
    "CORRUPTIONS",
    "corrupt",
    "corruption_sweep",
]


def _check_severity(severity: int) -> int:
    if not 1 <= severity <= 5:
        raise ValueError(f"severity must be in 1..5, got {severity}")
    return int(severity)


def gaussian_noise(
    x: np.ndarray, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Additive white Gaussian noise."""
    std = [0.04, 0.08, 0.12, 0.18, 0.26][_check_severity(severity) - 1]
    noisy = x + ensure_rng(rng).normal(0.0, std, size=x.shape)
    return np.clip(noisy, 0.0, 1.0)


def shot_noise(
    x: np.ndarray, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Poisson (photon) noise."""
    rate = [60, 25, 12, 5, 3][_check_severity(severity) - 1]
    sampled = ensure_rng(rng).poisson(np.clip(x, 0, 1) * rate) / rate
    return np.clip(sampled, 0.0, 1.0)


def impulse_noise(
    x: np.ndarray, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Salt-and-pepper noise."""
    fraction = [0.01, 0.03, 0.06, 0.1, 0.17][_check_severity(severity) - 1]
    generator = ensure_rng(rng)
    out = x.copy()
    mask = generator.random(x.shape) < fraction
    salt = generator.random(x.shape) < 0.5
    out[mask & salt] = 1.0
    out[mask & ~salt] = 0.0
    return out


def gaussian_blur(
    x: np.ndarray, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Gaussian blur over the spatial axes.

    A separable filter truncated at four standard deviations, with edges
    mirrored (``d c b a | a b c d``): the same filter as
    ``scipy.ndimage.gaussian_filter`` in its default mode, without scipy.
    """
    sigma = [0.4, 0.6, 0.9, 1.3, 1.8][_check_severity(severity) - 1]
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-0.5 / sigma**2 * offsets**2)
    weights /= weights.sum()
    out = np.asarray(x, dtype=np.float64)
    for axis in (-2, -1):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(out, pad, mode="symmetric"), axis, 0)
        size = out.shape[axis]
        blurred = sum(w * padded[k:k + size] for k, w in enumerate(weights))
        out = np.moveaxis(blurred, 0, axis)
    return np.clip(out, 0.0, 1.0).astype(x.dtype, copy=False)


def contrast(
    x: np.ndarray, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Contrast reduction toward the per-image mean."""
    factor = [0.75, 0.6, 0.45, 0.3, 0.2][_check_severity(severity) - 1]
    means = x.mean(axis=(-2, -1), keepdims=True)
    return np.clip((x - means) * factor + means, 0.0, 1.0)


def brightness(
    x: np.ndarray, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Additive brightness shift."""
    shift = [0.05, 0.1, 0.15, 0.2, 0.3][_check_severity(severity) - 1]
    return np.clip(x + shift, 0.0, 1.0)


def pixelate(
    x: np.ndarray, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Downsample and nearest-neighbour upsample."""
    factor = [0.8, 0.65, 0.5, 0.4, 0.3][_check_severity(severity) - 1]
    h, w = x.shape[-2:]
    small_h = max(1, int(h * factor))
    small_w = max(1, int(w * factor))
    rows = (np.arange(h) * small_h // h).clip(0, small_h - 1)
    cols = (np.arange(w) * small_w // w).clip(0, small_w - 1)
    src_rows = (np.arange(small_h) * h // small_h).clip(0, h - 1)
    src_cols = (np.arange(small_w) * w // small_w).clip(0, w - 1)
    small = x[..., src_rows[:, None], src_cols[None, :]]
    return small[..., rows[:, None], cols[None, :]]


CORRUPTIONS: Dict[str, Callable] = {
    "gaussian_noise": gaussian_noise,
    "shot_noise": shot_noise,
    "impulse_noise": impulse_noise,
    "gaussian_blur": gaussian_blur,
    "contrast": contrast,
    "brightness": brightness,
    "pixelate": pixelate,
}


def corrupt(
    x: np.ndarray, name: str, severity: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Apply a corruption by name."""
    if name not in CORRUPTIONS:
        raise KeyError(
            f"unknown corruption {name!r}; choose from {sorted(CORRUPTIONS)}"
        )
    return CORRUPTIONS[name](ensure_float_array(x), severity, rng)


def corruption_sweep(
    model,
    x: np.ndarray,
    y: np.ndarray,
    severities: Sequence[int] = (1, 3, 5),
    rng: RngLike = 0,
) -> Dict[str, Dict[int, float]]:
    """Accuracy of ``model`` under every corruption at each severity."""
    generator = ensure_rng(rng)
    y = np.asarray(y)
    results: Dict[str, Dict[int, float]] = {}
    for name in CORRUPTIONS:
        row: Dict[int, float] = {}
        for severity in severities:
            corrupted = corrupt(x, name, severity, rng=generator)
            row[int(severity)] = float(
                (model.predict(corrupted) == y).mean()
            )
        results[name] = row
    return results
