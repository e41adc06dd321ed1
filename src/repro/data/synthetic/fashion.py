"""Synthetic fashion-item dataset (Fashion-MNIST substitute).

Ten classes of textured garment silhouettes rendered as soft-edged filled
shapes.  Deliberately harder than :mod:`.digits`: several classes
(t-shirt / pullover / coat / shirt) share body shapes and differ only in
sleeves and proportions — mirroring why Fashion-MNIST is harder than MNIST,
which the paper's Figure 1/2 (b) panels and Table I rely on.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ...runtime import compute_dtype
from ...utils.rng import RngLike, ensure_rng, spawn_rngs
from ..dataset import TensorDataset
from .render import pixel_grid

__all__ = [
    "SyntheticFashion",
    "generate_fashion",
    "render_fashion_batch",
    "FASHION_CLASS_NAMES",
]

FASHION_CLASS_NAMES = (
    "tshirt",
    "trouser",
    "pullover",
    "dress",
    "coat",
    "sandal",
    "shirt",
    "sneaker",
    "bag",
    "ankle_boot",
)

_EDGE = 0.015  # soft-edge half width in unit-square units


def _soft_rect(u, v, x0, x1, y0, y1, edge=_EDGE):
    """Soft-edged axis-aligned rectangle mask."""

    def smooth(t):
        return 1.0 / (1.0 + np.exp(-t / edge))

    return (
        smooth(u - x0) * smooth(x1 - u) * smooth(v - y0) * smooth(y1 - v)
    )


def _soft_ellipse(u, v, cx, cy, rx, ry, edge=_EDGE):
    """Soft-edged ellipse mask."""
    d = np.sqrt(((u - cx) / rx) ** 2 + ((v - cy) / ry) ** 2)
    return 1.0 / (1.0 + np.exp((d - 1.0) / (edge / min(rx, ry))))


def _soft_trapezoid(u, v, y0, y1, half_top, half_bot, cx=0.5, edge=_EDGE):
    """Soft trapezoid widening from ``half_top`` at y0 to ``half_bot`` at y1."""
    t = np.clip((v - y0) / max(y1 - y0, 1e-9), 0.0, 1.0)
    half = half_top + (half_bot - half_top) * t

    def smooth(x):
        return 1.0 / (1.0 + np.exp(-x / edge))

    inside_x = smooth(half - np.abs(u - cx))
    inside_y = smooth(v - y0) * smooth(y1 - v)
    return inside_x * inside_y


def _u(rng, low, high):
    return float(rng.uniform(low, high))


def _tshirt(u, v, rng):
    body = _soft_rect(u, v, _u(rng, 0.29, 0.33), _u(rng, 0.67, 0.71),
                      _u(rng, 0.22, 0.27), _u(rng, 0.76, 0.84))
    sleeve_drop = _u(rng, 0.40, 0.48)
    left = _soft_rect(u, v, _u(rng, 0.14, 0.19), 0.33, 0.24, sleeve_drop)
    right = _soft_rect(u, v, 0.67, _u(rng, 0.81, 0.86), 0.24, sleeve_drop)
    return np.maximum(body, np.maximum(left, right))


def _trouser(u, v, rng):
    waist = _u(rng, 0.18, 0.24)
    hip = _soft_rect(u, v, 0.34, 0.66, waist, waist + _u(rng, 0.12, 0.18))
    gap = _u(rng, 0.02, 0.04)
    left = _soft_rect(u, v, 0.34, 0.5 - gap, waist + 0.1, _u(rng, 0.82, 0.88))
    right = _soft_rect(u, v, 0.5 + gap, 0.66, waist + 0.1, _u(rng, 0.82, 0.88))
    return np.maximum(hip, np.maximum(left, right))


def _pullover(u, v, rng):
    body = _soft_rect(u, v, _u(rng, 0.27, 0.31), _u(rng, 0.69, 0.73),
                      _u(rng, 0.22, 0.26), _u(rng, 0.74, 0.80))
    sleeve_drop = _u(rng, 0.68, 0.78)
    left = _soft_rect(u, v, _u(rng, 0.12, 0.17), 0.31, 0.24, sleeve_drop)
    right = _soft_rect(u, v, 0.69, _u(rng, 0.83, 0.88), 0.24, sleeve_drop)
    return np.maximum(body, np.maximum(left, right))


def _dress(u, v, rng):
    return _soft_trapezoid(
        u, v,
        _u(rng, 0.15, 0.22), _u(rng, 0.82, 0.88),
        _u(rng, 0.07, 0.11), _u(rng, 0.22, 0.28),
    )


def _coat(u, v, rng):
    body = _soft_rect(u, v, _u(rng, 0.26, 0.30), _u(rng, 0.70, 0.74),
                      _u(rng, 0.18, 0.23), _u(rng, 0.84, 0.90))
    sleeve_drop = _u(rng, 0.72, 0.84)
    left = _soft_rect(u, v, _u(rng, 0.11, 0.16), 0.30, 0.20, sleeve_drop)
    right = _soft_rect(u, v, 0.70, _u(rng, 0.84, 0.89), 0.20, sleeve_drop)
    coat = np.maximum(body, np.maximum(left, right))
    # Front seam: darker vertical stripe distinguishing coats from pullovers.
    seam = _soft_rect(u, v, 0.48, 0.52, 0.22, 0.88)
    return np.clip(coat - 0.55 * seam, 0.0, 1.0)


def _sandal(u, v, rng):
    sole_y = _u(rng, 0.60, 0.66)
    sole = _soft_rect(u, v, _u(rng, 0.16, 0.22), _u(rng, 0.78, 0.84),
                      sole_y, sole_y + _u(rng, 0.07, 0.10))
    strap1 = _soft_rect(u, v, 0.30, 0.36, sole_y - 0.22, sole_y)
    strap2 = _soft_rect(u, v, 0.52, 0.58, sole_y - 0.22, sole_y)
    top = _soft_rect(u, v, 0.30, 0.58, sole_y - 0.26, sole_y - 0.18)
    return np.maximum(sole, np.maximum(top, np.maximum(strap1, strap2)))


def _shirt(u, v, rng):
    body = _soft_rect(u, v, _u(rng, 0.31, 0.35), _u(rng, 0.65, 0.69),
                      _u(rng, 0.20, 0.24), _u(rng, 0.78, 0.84))
    sleeve_drop = _u(rng, 0.60, 0.72)
    left = _soft_rect(u, v, _u(rng, 0.17, 0.21), 0.35, 0.22, sleeve_drop)
    right = _soft_rect(u, v, 0.65, _u(rng, 0.79, 0.83), 0.22, sleeve_drop)
    shirt = np.maximum(body, np.maximum(left, right))
    # Collar notch: dark triangle-ish wedge at the neckline.
    collar = _soft_trapezoid(u, v, 0.20, 0.34, 0.015, 0.07)
    return np.clip(shirt - 0.6 * collar, 0.0, 1.0)


def _sneaker(u, v, rng):
    base_y = _u(rng, 0.52, 0.58)
    sole = _soft_rect(u, v, _u(rng, 0.16, 0.20), _u(rng, 0.80, 0.84),
                      base_y + 0.12, base_y + _u(rng, 0.18, 0.22))
    toe = _soft_ellipse(u, v, 0.68, base_y + 0.10, _u(rng, 0.14, 0.18), 0.10)
    upper = _soft_rect(u, v, 0.20, 0.58, base_y - _u(rng, 0.06, 0.10),
                       base_y + 0.14)
    return np.maximum(sole, np.maximum(toe, upper))


def _bag(u, v, rng):
    top = _u(rng, 0.36, 0.42)
    body = _soft_rect(u, v, _u(rng, 0.22, 0.27), _u(rng, 0.73, 0.78),
                      top, _u(rng, 0.78, 0.84))
    # Handle: annulus arc above the body.
    outer = _soft_ellipse(u, v, 0.5, top, 0.18, _u(rng, 0.14, 0.18))
    inner = _soft_ellipse(u, v, 0.5, top, 0.11, 0.10)
    handle = np.clip(outer - inner, 0.0, 1.0) * (v < top)
    return np.maximum(body, handle)


def _ankle_boot(u, v, rng):
    shaft_x0 = _u(rng, 0.30, 0.36)
    shaft = _soft_rect(u, v, shaft_x0, shaft_x0 + _u(rng, 0.18, 0.24),
                       _u(rng, 0.20, 0.28), 0.62)
    foot = _soft_rect(u, v, shaft_x0, _u(rng, 0.74, 0.82), 0.55,
                      _u(rng, 0.72, 0.78))
    toe = _soft_ellipse(u, v, 0.74, 0.66, 0.12, 0.09)
    return np.maximum(shaft, np.maximum(foot, toe))


_BUILDERS: Dict[int, Callable] = {
    0: _tshirt,
    1: _trouser,
    2: _pullover,
    3: _dress,
    4: _coat,
    5: _sandal,
    6: _shirt,
    7: _sneaker,
    8: _bag,
    9: _ankle_boot,
}


def _texture(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Low-frequency multiplicative texture in [0.55, 1.0]."""
    size = shape[0]
    coords = np.linspace(0.0, 1.0, size)
    xs, ys = np.meshgrid(coords, coords)
    field = np.zeros(shape)
    for _ in range(3):
        fx, fy = rng.uniform(2.0, 7.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field += np.sin(2 * np.pi * (fx * xs + fy * ys) + phase)
    field = (field - field.min()) / max(np.ptp(field), 1e-9)
    return 0.55 + 0.45 * field


def _render_fashion(
    label: int, rng: np.random.Generator, size: int, noise_std: float
) -> np.ndarray:
    xs, ys = pixel_grid(size)
    # Mild affine jitter applied by warping the sampling grid.
    angle = rng.uniform(-0.12, 0.12)
    scale = rng.uniform(0.9, 1.1)
    tx, ty = rng.uniform(-0.05, 0.05, size=2)
    cos, sin = np.cos(angle), np.sin(angle)
    u = ((xs - 0.5) * cos - (ys - 0.5) * sin) / scale + 0.5 - tx
    v = ((xs - 0.5) * sin + (ys - 0.5) * cos) / scale + 0.5 - ty
    silhouette = _BUILDERS[label](u, v, rng)
    image = silhouette * _texture((size, size), rng)
    if noise_std > 0:
        image = image + rng.normal(0.0, noise_std, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def render_fashion_batch(
    labels: Sequence[int],
    rng: RngLike,
    size: int = 28,
    noise_std: float = 0.05,
    out: np.ndarray = None,
) -> np.ndarray:
    """Render one fashion image per label — the batch renderer.

    Counterpart of :func:`repro.data.synthetic.digits.render_digits` (see
    there for the determinism contract streaming sources rely on); each
    example is rendered on its own, in label order.
    """
    generator = ensure_rng(rng)
    if out is None:
        out = np.empty((len(labels), size, size), dtype=np.float64)
    for row, label in enumerate(labels):
        out[row] = _render_fashion(int(label), generator, size, noise_std)
    return out


def generate_fashion(
    num_per_class: int,
    size: int = 28,
    noise_std: float = 0.05,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a balanced synthetic fashion set.

    Returns
    -------
    examples:
        ``(10 * num_per_class, 1, size, size)`` array in ``[0, 1]``.
    labels:
        ``(10 * num_per_class,)`` integer labels.
    """
    if num_per_class <= 0:
        raise ValueError(
            f"num_per_class must be positive, got {num_per_class}"
        )
    generator = ensure_rng(rng)
    class_rngs = spawn_rngs(generator, 10)
    examples = np.empty(
        (10 * num_per_class, 1, size, size), dtype=compute_dtype()
    )
    labels = np.repeat(np.arange(10, dtype=np.int64), num_per_class)
    for label in range(10):
        rows = slice(label * num_per_class, (label + 1) * num_per_class)
        render_fashion_batch(
            labels[rows], class_rngs[label], size, noise_std,
            out=examples[rows, 0],
        )
    order = generator.permutation(len(labels))
    return examples[order], labels[order]


class SyntheticFashion(TensorDataset):
    """In-memory synthetic fashion dataset (Fashion-MNIST stand-in)."""

    num_classes = 10
    image_shape = (1, 28, 28)
    class_names = FASHION_CLASS_NAMES

    def __init__(
        self,
        num_per_class: int = 200,
        size: int = 28,
        seed: int = 0,
        noise_std: float = 0.05,
    ) -> None:
        examples, labels = generate_fashion(
            num_per_class, size=size, noise_std=noise_std, rng=seed
        )
        super().__init__(examples, labels)
        self.image_shape = (1, size, size)
