"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import init


class TestComputeFans:
    def test_dense(self):
        assert init.compute_fans((20, 30)) == (20, 30)

    def test_conv(self):
        # (out, in, kh, kw) -> fan_in = in * kh * kw
        assert init.compute_fans((8, 4, 3, 3)) == (36, 72)

    def test_vector(self):
        assert init.compute_fans((5,)) == (5, 5)

    def test_scalar_raises(self):
        with pytest.raises(ValueError):
            init.compute_fans(())


class TestDeterminism:
    @pytest.mark.parametrize(
        "fn",
        [init.kaiming_uniform],
    )
    def test_same_seed_same_weights(self, fn):
        assert np.array_equal(fn((10, 10), rng=3), fn((10, 10), rng=3))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            init.kaiming_uniform((10, 10), rng=1),
            init.kaiming_uniform((10, 10), rng=2),
        )


class TestStatistics:
    def test_uniform_bounds(self):
        w = init.uniform((1000,), -0.5, 0.5, rng=0)
        assert w.min() >= -0.5 and w.max() <= 0.5

    def test_kaiming_uniform_bound(self):
        fan_in = 400
        w = init.kaiming_uniform((fan_in, 200), rng=0)
        assert np.abs(w).max() <= np.sqrt(6.0 / fan_in)
