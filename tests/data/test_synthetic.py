"""Tests for the synthetic dataset generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import SyntheticDigits, SyntheticFashion, SyntheticSource
from repro.data.synthetic import (
    DIGIT_STROKES,
    generate_digits,
    generate_fashion,
    load_dataset,
    render_digits,
)
from repro.data.synthetic import digits as digits_module
from repro.data.synthetic.fashion import _render_fashion
from repro.data.synthetic.render import (
    affine_points,
    pixel_grid,
    random_affine,
    render_polyline,
)
from repro.runtime import compute_dtype, precision
from repro.utils.rng import spawn_rngs


# -- the per-example renderer the chunk-batched one replaced, kept as an
# -- oracle: one distance field per segment, one image per call.

def _oracle_polyline(points, size, width, grid):
    points = np.asarray(points, dtype=np.float64)
    xs, ys = grid
    image = np.zeros((size, size), dtype=np.float64)
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        dx, dy = x1 - x0, y1 - y0
        length_sq = dx * dx + dy * dy
        if length_sq < 1e-12:
            dist_sq = (xs - x0) ** 2 + (ys - y0) ** 2
        else:
            t = ((xs - x0) * dx + (ys - y0) * dy) / length_sq
            t = np.clip(t, 0.0, 1.0)
            px = x0 + t * dx
            py = y0 + t * dy
            dist_sq = (xs - px) ** 2 + (ys - py) ** 2
        np.maximum(image, np.exp(-dist_sq / (2.0 * width * width)), out=image)
    return image


def _oracle_digit(label, rng, size=28, point_jitter=0.012, noise_std=0.02):
    prototypes = DIGIT_STROKES[label]
    strokes = prototypes[rng.integers(len(prototypes))]
    params = random_affine(rng)
    width = rng.uniform(0.055, 0.085)
    grid = pixel_grid(size)
    image = np.zeros((size, size), dtype=np.float64)
    for polyline in strokes:
        points = np.asarray(polyline, dtype=np.float64)
        jittered = points + rng.normal(0.0, point_jitter, size=points.shape)
        transformed = affine_points(jittered, **params)
        np.maximum(
            image, _oracle_polyline(transformed, size, width, grid),
            out=image,
        )
    image = 1.0 / (1.0 + np.exp(-(image - 0.42) / 0.07))
    noisy = image * rng.uniform(0.95, 1.0)
    if noise_std > 0:
        noisy = noisy + rng.normal(0.0, noise_std, size=image.shape)
    return np.clip(noisy, 0.0, 1.0)


def _oracle_digits(labels, rng, **kwargs):
    return np.stack([_oracle_digit(int(label), rng, **kwargs)
                     for label in labels])


class TestRenderPrimitives:
    def test_pixel_grid_bounds(self):
        xs, ys = pixel_grid(28)
        assert xs.shape == (28, 28)
        assert 0.0 < xs.min() < xs.max() < 1.0

    def test_render_polyline_range(self):
        img = render_polyline([(0.2, 0.5), (0.8, 0.5)], size=28)
        assert img.shape == (28, 28)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_stroke_is_bright_on_line(self):
        img = render_polyline([(0.1, 0.5), (0.9, 0.5)], size=28, width=0.05)
        assert img[14, 14] > 0.9      # on the stroke
        assert img[2, 14] < 0.1       # far from it

    def test_degenerate_segment_renders_point(self):
        img = render_polyline([(0.5, 0.5), (0.5, 0.5)], size=28, width=0.05)
        # Nearest pixel centre is ~0.018 away from the point in each axis.
        assert img[14, 14] > 0.8

    def test_invalid_polyline(self):
        with pytest.raises(ValueError):
            render_polyline([(0.5, 0.5)], size=28)

    @pytest.mark.parametrize("points,width", [
        ([(0.2, 0.5), (0.8, 0.5)], 0.06),
        ([(0.1, 0.5), (0.9, 0.5)], 0.05),
        ([(0.5, 0.5), (0.5, 0.5)], 0.05),
        # Degenerate segments between and after proper ones.
        ([(0.3, 0.4), (0.3, 0.4), (0.7, 0.6), (0.7, 0.6)], 0.07),
        # Shorter than the 1e-6 length cut-off: rendered as a point.
        ([(0.4, 0.5), (0.4 + 1e-7, 0.5 - 1e-7), (0.6, 0.3)], 0.06),
        ([(0.25, 0.2), (0.6, 0.3), (0.4, 0.8), (0.25, 0.2)], 0.055),
    ])
    def test_polyline_matches_per_segment_oracle(self, points, width):
        img = render_polyline(points, size=28, width=width)
        oracle = _oracle_polyline(points, 28, width, pixel_grid(28))
        np.testing.assert_array_equal(img, oracle)

    def test_affine_identity(self):
        pts = np.array([[0.2, 0.3], [0.7, 0.8]])
        assert np.allclose(affine_points(pts), pts)

    def test_affine_translation(self):
        pts = np.array([[0.5, 0.5]])
        out = affine_points(pts, translation=(0.1, -0.2))
        assert np.allclose(out, [[0.6, 0.3]])

    def test_affine_rotation_preserves_center(self):
        out = affine_points(np.array([[0.5, 0.5]]), rotation=1.0)
        assert np.allclose(out, [[0.5, 0.5]])


class TestGenerateDigits:
    def test_shapes_and_range(self):
        x, y = generate_digits(5, rng=0)
        assert x.shape == (50, 1, 28, 28)
        assert y.shape == (50,)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_balanced_classes(self):
        _x, y = generate_digits(7, rng=0)
        counts = np.bincount(y, minlength=10)
        assert (counts == 7).all()

    def test_deterministic(self):
        x1, y1 = generate_digits(3, rng=42)
        x2, y2 = generate_digits(3, rng=42)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)

    def test_different_seeds_differ(self):
        x1, _ = generate_digits(3, rng=1)
        x2, _ = generate_digits(3, rng=2)
        assert not np.array_equal(x1, x2)

    def test_intra_class_variation(self):
        x, y = generate_digits(5, rng=0)
        ones = x[y == 1]
        assert not np.array_equal(ones[0], ones[1])

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_digits(0)

    def test_near_binary_pixels(self):
        """The MNIST stand-in must have saturated pixels (see DESIGN.md)."""
        x, _ = generate_digits(5, rng=0)
        extreme = ((x < 0.2) | (x > 0.8)).mean()
        assert extreme > 0.8


class TestGenerateFashion:
    def test_shapes_and_range(self):
        x, y = generate_fashion(5, rng=0)
        assert x.shape == (50, 1, 28, 28)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_balanced(self):
        _x, y = generate_fashion(4, rng=0)
        assert (np.bincount(y, minlength=10) == 4).all()

    def test_deterministic(self):
        x1, _ = generate_fashion(3, rng=9)
        x2, _ = generate_fashion(3, rng=9)
        assert np.array_equal(x1, x2)

    def test_classes_distinguishable_by_mean_image(self):
        """Class mean images must differ — otherwise nothing is learnable."""
        x, y = generate_fashion(10, rng=0)
        means = np.stack([x[y == c].mean(axis=0) for c in range(10)])
        for a in range(10):
            for b in range(a + 1, 10):
                assert np.abs(means[a] - means[b]).mean() > 0.01

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_fashion(-1)


class TestDatasetClasses:
    def test_digits_dataset(self):
        ds = SyntheticDigits(num_per_class=3, seed=0)
        assert len(ds) == 30
        x, y = ds[0]
        assert x.shape == (1, 28, 28)
        assert ds.num_classes == 10

    def test_fashion_dataset(self):
        ds = SyntheticFashion(num_per_class=3, seed=0)
        assert len(ds) == 30
        assert len(ds.class_names) == 10

    def test_custom_size(self):
        ds = SyntheticDigits(num_per_class=2, size=14, seed=0)
        assert ds[0][0].shape == (1, 14, 14)
        assert ds.image_shape == (1, 14, 14)


class TestBatchRenderer:
    """The chunk-batched digit renderer is bit-identical to the oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("chunk_bytes", [0, None, 1 << 24])
    def test_matches_oracle(self, seed, chunk_bytes, monkeypatch):
        # 0: one example per chunk; None: the shipped budget; 1 << 24:
        # the whole call in one chunk.
        if chunk_bytes is not None:
            monkeypatch.setattr(digits_module, "_CHUNK_BYTES", chunk_bytes)
        labels = np.random.default_rng(seed).integers(0, 10, size=37)
        images = render_digits(labels, np.random.default_rng(seed))
        oracle = _oracle_digits(labels, np.random.default_rng(seed))
        assert images.dtype == np.float64
        np.testing.assert_array_equal(images, oracle)

    def test_matches_oracle_without_noise_at_size_20(self):
        labels = np.arange(23) % 10
        kwargs = dict(size=20, noise_std=0.0)
        images = render_digits(labels, 4, **kwargs)
        oracle = _oracle_digits(labels, np.random.default_rng(4), **kwargs)
        assert images.shape == (23, 20, 20)
        np.testing.assert_array_equal(images, oracle)

    def test_writes_into_out(self):
        labels = np.arange(12) % 10
        out = np.zeros((12, 28, 28), dtype=np.float32)
        assert render_digits(labels, 2, out=out) is out
        oracle = _oracle_digits(labels, np.random.default_rng(2))
        np.testing.assert_array_equal(out, oracle.astype(np.float32))

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_shards_match_oracle(self, seed, dtype):
        # 93 examples in shards of 40: the last shard is partial.
        source = SyntheticSource(
            "digits", num_examples=93, shard_size=40, seed=seed, dtype=dtype
        )
        for shard_id in range(source.num_shards):
            x, y = source.shard(shard_id)
            oracle = _oracle_digits(y, source.shard_rng(shard_id))
            assert x.dtype == dtype
            np.testing.assert_array_equal(x[:, 0], oracle.astype(dtype))

    def test_shards_match_oracle_with_render_kwargs(self):
        source = SyntheticSource(
            "digits", num_examples=30, shard_size=30, seed=5, size=20,
            noise_std=0.0, dtype=np.float64,
        )
        x, y = source.shard(0)
        oracle = _oracle_digits(
            y, source.shard_rng(0), size=20, noise_std=0.0
        )
        np.testing.assert_array_equal(x[:, 0], oracle)

    def test_fashion_shards_match_per_example_render(self):
        source = SyntheticSource(
            "fashion", num_examples=25, shard_size=25, seed=2,
            dtype=np.float64,
        )
        x, y = source.shard(0)
        rng = source.shard_rng(0)
        for image, label in zip(x[:, 0], y):
            np.testing.assert_array_equal(
                image, _render_fashion(int(label), rng, 28, 0.05)
            )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_generate_digits_matches_oracle_under_policy(self, dtype):
        with precision(dtype):
            x, y = generate_digits(6, rng=9)
        generator = np.random.default_rng(9)
        class_rngs = spawn_rngs(generator, 10)
        oracle = np.stack([
            _oracle_digit(label, class_rngs[label])
            for label in range(10) for _ in range(6)
        ])
        order = generator.permutation(60)
        assert x.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(y, np.repeat(np.arange(10), 6)[order])
        np.testing.assert_array_equal(
            x[:, 0], oracle[order].astype(dtype)
        )

    def test_transient_memory_within_chunk_budget(self):
        labels = np.arange(256) % 10
        out = np.empty((256, 28, 28))
        generator = np.random.default_rng(0)
        tracemalloc.start()
        try:
            render_digits(labels, generator, out=out)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= digits_module._CHUNK_BYTES


# sha256 over (train x, train y, test x, test y) bytes of
# load_dataset(name, 200, 50, seed=0), per policy dtype.  A renderer
# change that moves any Table I pixel by one bit fails here.
_SPLIT_SHA256 = {
    ("digits", "float64"):
        "afc7e3ec51ee8d677d501137cd79d87c867f2fb8d7d84c2c781fac7ab200b13a",
    ("digits", "float32"):
        "acb83ab80bacfc8ad0100475cecf585b7d09075c0951a4b70d1cef28051e3a9f",
    ("fashion", "float64"):
        "86100ce9efabe8959b3ea0691119ae8f2bf71a1e73453e5819675fd12a6794e3",
    ("fashion", "float32"):
        "9466bf807f75ab9a17c838f76e65582e1f2aa0a14c3a0fe21464be4de0aa6b8e",
}


@pytest.mark.parametrize("name", ["digits", "fashion"])
def test_table1_split_fingerprint(name):
    train, test = load_dataset(name, 200, 50, seed=0)
    digest = hashlib.sha256()
    for split in (train, test):
        for array in split.arrays():
            digest.update(np.ascontiguousarray(array).tobytes())
    expected = _SPLIT_SHA256[(name, np.dtype(compute_dtype()).name)]
    assert digest.hexdigest() == expected
