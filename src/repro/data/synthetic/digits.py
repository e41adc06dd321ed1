"""Synthetic handwritten-digit dataset (MNIST substitute).

Each of the ten classes is defined by one or more prototype stroke sets
(polylines in the unit square).  A sample is drawn by picking a prototype,
jittering its control points, applying a random affine transform, and
rasterising with a random stroke width — yielding MNIST-like intra-class
variation while staying fully offline and deterministic under a seed.

See DESIGN.md ("Substitutions") for why this preserves the phenomena the
paper studies.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...runtime import compute_dtype
from ...utils.rng import RngLike, ensure_rng, spawn_rngs
from ..dataset import TensorDataset
from .render import (
    affine_points,
    pixel_grid,
    random_affine,
    segment_field,
)

__all__ = [
    "DIGIT_STROKES",
    "SyntheticDigits",
    "generate_digits",
    "render_digits",
]


def _circle(
    cx: float, cy: float, rx: float, ry: float, n: int = 12,
    start: float = 0.0, end: float = 2 * np.pi,
) -> List[Tuple[float, float]]:
    """Polyline approximation of an elliptical arc."""
    angles = np.linspace(start, end, n)
    return [(cx + rx * np.cos(a), cy + ry * np.sin(a)) for a in angles]


# Prototype strokes per class, unit-square coordinates, y grows downward.
DIGIT_STROKES: Dict[int, List[List[List[Tuple[float, float]]]]] = {
    0: [
        [_circle(0.5, 0.5, 0.22, 0.33, n=16)],
        [_circle(0.5, 0.5, 0.26, 0.30, n=16)],
    ],
    1: [
        [[(0.5, 0.12), (0.5, 0.88)]],
        [[(0.38, 0.25), (0.52, 0.12), (0.52, 0.88)]],
    ],
    2: [
        [
            [
                (0.28, 0.28),
                (0.38, 0.14),
                (0.62, 0.14),
                (0.72, 0.28),
                (0.30, 0.84),
                (0.74, 0.84),
            ]
        ],
    ],
    3: [
        [
            [
                (0.30, 0.16),
                (0.68, 0.18),
                (0.72, 0.32),
                (0.50, 0.48),
                (0.72, 0.64),
                (0.68, 0.80),
                (0.30, 0.84),
            ]
        ],
    ],
    4: [
        [
            [(0.66, 0.88), (0.66, 0.12), (0.28, 0.60), (0.80, 0.60)],
        ],
        [
            [(0.30, 0.15), (0.30, 0.55), (0.75, 0.55)],
            [(0.66, 0.15), (0.66, 0.88)],
        ],
    ],
    5: [
        [
            [
                (0.72, 0.14),
                (0.32, 0.14),
                (0.30, 0.46),
                (0.60, 0.44),
                (0.73, 0.58),
                (0.70, 0.76),
                (0.30, 0.85),
            ]
        ],
    ],
    6: [
        [
            [(0.66, 0.14), (0.42, 0.32), (0.33, 0.55)]
            + _circle(0.50, 0.65, 0.18, 0.20, n=12),
        ],
    ],
    7: [
        [[(0.26, 0.15), (0.74, 0.15), (0.44, 0.86)]],
        [
            [(0.26, 0.15), (0.74, 0.15), (0.44, 0.86)],
            [(0.38, 0.5), (0.62, 0.5)],
        ],
    ],
    8: [
        [
            _circle(0.5, 0.32, 0.17, 0.17, n=12),
            _circle(0.5, 0.67, 0.20, 0.19, n=12),
        ],
    ],
    9: [
        [
            _circle(0.50, 0.35, 0.18, 0.20, n=12),
            [(0.67, 0.42), (0.62, 0.66), (0.48, 0.86)],
        ],
    ],
}


# The prototypes as float64 vertex arrays, converted once.
_STROKE_ARRAYS = {
    label: [
        [np.asarray(polyline, dtype=np.float64) for polyline in strokes]
        for strokes in prototypes
    ]
    for label, prototypes in DIGIT_STROKES.items()
}

# float64 rows an example can hold in a raster chunk: two field rows per
# stroke segment (see render.segment_field), its canvas and its noise.
_MAX_EXAMPLE_ROWS = 2 + 2 * max(
    sum(len(polyline) - 1 for polyline in strokes)
    for prototypes in _STROKE_ARRAYS.values()
    for strokes in prototypes
)

# Working-set budget of one raster chunk, in bytes.  A chunk gathers
# examples until one more could overflow it, so its numpy calls amortise
# over several images while the field stays cache-sized.
_CHUNK_BYTES = 1 << 20


def _sharpen(image: np.ndarray) -> np.ndarray:
    """Push stroke interiors toward 1 and background toward 0, in place.

    MNIST pixels are near-binary; that saturation is what makes robust
    classification at eps = 0.3 feasible, so the substitute mimics it.
    Computes ``1 / (1 + exp(-(image - 0.42) / 0.07))``.
    """
    np.subtract(0.42, image, out=image)  # == -(image - 0.42), bit for bit
    image /= 0.07
    np.exp(image, out=image)
    image += 1.0
    return np.divide(1.0, image, out=image)


class _Chunk:
    """The draws of a run of consecutive examples, awaiting rasterisation."""

    def __init__(self, start: int) -> None:
        self.start = start
        self.polylines: List[np.ndarray] = []
        self.segments: List[int] = []
        self.denoms: List[float] = []
        self.intensities: List[float] = []
        self.noises: List[np.ndarray] = []
        self.rows = 0

    def draw(
        self,
        label: int,
        rng: np.random.Generator,
        size: int,
        point_jitter: float,
        noise_std: float,
    ) -> None:
        """Draw one example's randomness, in the renderer's fixed order."""
        prototypes = _STROKE_ARRAYS[label]
        strokes = prototypes[rng.integers(len(prototypes))]
        params = random_affine(rng)
        width = rng.uniform(0.055, 0.085)
        segments = 0
        for polyline in strokes:
            jittered = polyline + rng.normal(
                0.0, point_jitter, size=polyline.shape
            )
            self.polylines.append(affine_points(jittered, **params))
            segments += len(polyline) - 1
        self.segments.append(segments)
        self.denoms.append(2.0 * width * width)
        self.intensities.append(rng.uniform(0.95, 1.0))
        if noise_std > 0:
            self.noises.append(
                rng.normal(0.0, noise_std, size=(size, size)).reshape(-1)
            )
        self.rows += 2 * segments + 2

    def raster(self, xs: np.ndarray, ys: np.ndarray, out: np.ndarray) -> None:
        """Rasterise, sharpen and noise the chunk into ``out``."""
        starts = np.concatenate([p[:-1] for p in self.polylines])
        ends = np.concatenate([p[1:] for p in self.polylines])
        denom = np.repeat(self.denoms, self.segments)[:, None]
        field = segment_field(starts, ends, denom, xs, ys)
        # Max is exact, so one reduction per example over all its
        # segments equals the per-segment running maximum.
        canvas = np.empty((len(self.segments), len(xs)))
        stop = 0
        for row, segments in zip(canvas, self.segments):
            start, stop = stop, stop + segments
            field[start:stop].max(axis=0, out=row)
        del field
        _sharpen(canvas)
        canvas *= np.asarray(self.intensities)[:, None]
        for row, noise in zip(canvas, self.noises):
            row += noise
        np.clip(canvas, 0.0, 1.0, out=canvas)
        out[...] = canvas.reshape(out.shape)


def render_digits(
    labels: Sequence[int],
    rng: RngLike,
    size: int = 28,
    point_jitter: float = 0.012,
    noise_std: float = 0.02,
    out: np.ndarray = None,
) -> np.ndarray:
    """Render one digit image per label — the batch renderer.

    Each example draws from ``rng`` in a fixed order: the prototype, the
    affine transform, the stroke width, one jitter per polyline, the
    intensity, then the pixel noise.  Examples draw one after another,
    so an image depends only on its label and the generator state, and
    a shard's content is a pure function of its ``(seed, shard_id)`` key
    (see :class:`repro.data.source.SyntheticSource`).  Rasterisation
    runs one chunk of examples at a time: all their stroke segments in
    one :func:`~repro.data.synthetic.render.segment_field` call.

    Returns ``out`` (allocated as float64 when ``None``): ``(n, size,
    size)`` images in ``[0, 1]``, computed in float64 and cast on the
    write into ``out``.
    """
    generator = ensure_rng(rng)
    if out is None:
        out = np.empty((len(labels), size, size), dtype=np.float64)
    xs, ys = (axis.reshape(-1) for axis in pixel_grid(size))
    # A broadcasting ufunc also takes up to two bufsize-element scratch
    # buffers; the rest of the budget holds the chunk's rows.
    scratch = 2 * np.getbufsize() * 8
    budget_rows = max(
        (_CHUNK_BYTES - scratch) // (size * size * 8), _MAX_EXAMPLE_ROWS
    )
    chunk = _Chunk(0)
    for index, label in enumerate(labels):
        chunk.draw(int(label), generator, size, point_jitter, noise_std)
        if chunk.rows + _MAX_EXAMPLE_ROWS > budget_rows:
            chunk.raster(xs, ys, out[chunk.start:index + 1])
            chunk = _Chunk(index + 1)
    if chunk.segments:
        chunk.raster(xs, ys, out[chunk.start:])
    return out


def generate_digits(
    num_per_class: int,
    size: int = 28,
    point_jitter: float = 0.012,
    noise_std: float = 0.02,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a balanced synthetic digit set.

    Returns
    -------
    examples:
        Array of shape ``(10 * num_per_class, 1, size, size)`` in ``[0, 1]``.
    labels:
        Integer labels of shape ``(10 * num_per_class,)``.
    """
    if num_per_class <= 0:
        raise ValueError(
            f"num_per_class must be positive, got {num_per_class}"
        )
    generator = ensure_rng(rng)
    class_rngs = spawn_rngs(generator, 10)
    # Rendering happens in float64 (see render.py); the emitted set is in
    # the policy compute dtype, cast once here rather than per batch.
    examples = np.empty(
        (10 * num_per_class, 1, size, size), dtype=compute_dtype()
    )
    labels = np.repeat(np.arange(10, dtype=np.int64), num_per_class)
    for label in range(10):
        rows = slice(label * num_per_class, (label + 1) * num_per_class)
        render_digits(
            labels[rows], class_rngs[label], size, point_jitter, noise_std,
            out=examples[rows, 0],
        )
    # Interleave classes so truncated subsets stay balanced.
    order = ensure_rng(generator).permutation(len(labels))
    return examples[order], labels[order]


class SyntheticDigits(TensorDataset):
    """In-memory synthetic digit dataset (MNIST stand-in).

    Parameters
    ----------
    num_per_class:
        Examples generated per class.
    size:
        Image side length (paper: 28).
    seed:
        Generation seed; two datasets with the same seed are identical.
    """

    num_classes = 10
    image_shape = (1, 28, 28)

    def __init__(
        self,
        num_per_class: int = 200,
        size: int = 28,
        seed: int = 0,
        point_jitter: float = 0.012,
        noise_std: float = 0.02,
    ) -> None:
        examples, labels = generate_digits(
            num_per_class,
            size=size,
            point_jitter=point_jitter,
            noise_std=noise_std,
            rng=seed,
        )
        super().__init__(examples, labels)
        self.image_shape = (1, size, size)
