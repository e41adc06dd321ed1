"""Rasterisation primitives for the synthetic image datasets.

The synthetic datasets substitute for MNIST / Fashion-MNIST (unavailable
offline; see DESIGN.md).  Images are drawn procedurally:

* *digits* as anti-aliased polylines (distance-field rendering),
* *fashion* items as filled silhouettes with texture.

Everything here is pure numpy and deterministic given a generator.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ...utils.rng import RngLike, ensure_rng

__all__ = [
    "pixel_grid",
    "segment_field",
    "render_polyline",
    "affine_points",
    "random_affine",
]

Point = Tuple[float, float]


def pixel_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(xs, ys)`` pixel-centre coordinates in the unit square."""
    centers = (np.arange(size) + 0.5) / size
    xs, ys = np.meshgrid(centers, centers)
    return xs, ys


def segment_field(
    starts: np.ndarray,
    ends: np.ndarray,
    denom,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Stroke intensity of each segment at each pixel — the raster kernel.

    Row ``s`` of the result is ``exp(-d**2 / denom)`` where ``d`` is each
    pixel's distance to segment ``starts[s] -> ends[s]``.  Every renderer
    of polylines runs through here: :func:`render_polyline` on one
    polyline, :func:`repro.data.synthetic.digits.render_digits` on all
    segments of a chunk of examples at once.  The elementwise formula and
    its operation order are fixed, so an image comes out bit-identical
    however its segments are batched.

    Parameters
    ----------
    starts, ends:
        ``(S, 2)`` segment end points.
    denom:
        ``2 * width**2``: a scalar, or an ``(S, 1)`` column (one stroke
        width per segment).
    xs, ys:
        Flattened ``(P,)`` pixel-centre coordinates (:func:`pixel_grid`).

    Returns an ``(S, P)`` float64 array.
    """
    x0, y0 = starts[:, :1], starts[:, 1:]
    dx = ends[:, :1] - x0
    dy = ends[:, 1:] - y0
    length_sq = dx * dx + dy * dy
    # A zero-length segment is a point: dx = dy = 0 gives t = 0 and
    # px = x0, so the projection below is exactly the point distance.
    point = length_sq < 1e-12
    dx[point] = 0.0
    dy[point] = 0.0
    length_sq[point] = 1.0
    # Project each pixel onto the segment, clamp to [0, 1].  The work runs
    # in place in two (S, P) buffers: ``t`` holds t, then (ys - py)**2;
    # ``other`` holds the y term of t, then (xs - px)**2, then the field.
    t = np.subtract(xs, x0)
    t *= dx
    other = np.subtract(ys, y0)
    other *= dy
    t += other
    t /= length_sq
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, dx, out=other)
    other += x0
    np.subtract(xs, other, out=other)
    np.square(other, out=other)
    t *= dy
    t += y0
    np.subtract(ys, t, out=t)
    np.square(t, out=t)
    other += t
    # -d / denom, with the sign moved onto the (smaller) divisor: IEEE
    # division is sign-symmetric, so the bits are the same.
    other /= -denom
    return np.exp(other, out=other)


def render_polyline(
    points: Sequence[Point],
    size: int = 28,
    width: float = 0.06,
    grid: Tuple[np.ndarray, np.ndarray] = None,
) -> np.ndarray:
    """Rasterise a polyline given in unit-square coordinates.

    Intensity at a pixel decays as a Gaussian of its distance to the nearest
    segment, giving smooth anti-aliased strokes.

    Parameters
    ----------
    points:
        Polyline vertices ``(x, y)`` with ``y`` growing downward.
    size:
        Output image side length.
    width:
        Stroke half-width in unit-square units.
    grid:
        Optional precomputed :func:`pixel_grid` for speed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
        raise ValueError(
            f"polyline must be an (M>=2, 2) array, got shape {points.shape}"
        )
    xs, ys = grid if grid is not None else pixel_grid(size)
    field = segment_field(
        points[:-1], points[1:], 2.0 * width * width,
        xs.reshape(-1), ys.reshape(-1),
    )
    return field.max(axis=0).reshape(size, size)


def affine_points(
    points: np.ndarray,
    rotation: float = 0.0,
    scale: float = 1.0,
    shear: float = 0.0,
    translation: Tuple[float, float] = (0.0, 0.0),
    center: Tuple[float, float] = (0.5, 0.5),
) -> np.ndarray:
    """Apply an affine transform to unit-square points about ``center``."""
    points = np.asarray(points, dtype=np.float64)
    cx, cy = center
    cos, sin = np.cos(rotation), np.sin(rotation)
    rot = np.array([[cos, -sin], [sin, cos]])
    shear_mat = np.array([[1.0, shear], [0.0, 1.0]])
    matrix = scale * (rot @ shear_mat)
    shifted = points - np.array([cx, cy])
    transformed = shifted @ matrix.T + np.array([cx, cy]) + np.asarray(
        translation
    )
    return transformed


def random_affine(
    rng: RngLike,
    max_rotation: float = 0.25,
    scale_range: Tuple[float, float] = (0.85, 1.15),
    max_shear: float = 0.15,
    max_translation: float = 0.08,
) -> dict:
    """Draw random affine parameters for :func:`affine_points`."""
    generator = ensure_rng(rng)
    return {
        "rotation": generator.uniform(-max_rotation, max_rotation),
        "scale": generator.uniform(*scale_range),
        "shear": generator.uniform(-max_shear, max_shear),
        "translation": tuple(
            generator.uniform(-max_translation, max_translation, size=2)
        ),
    }
