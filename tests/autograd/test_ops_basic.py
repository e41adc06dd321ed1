"""Tests for elementwise operations and their gradients."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor, check_gradients
from repro.autograd.ops_basic import unbroadcast


def t(values, grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


class TestForwardValues:
    def test_add(self):
        assert np.allclose((t([1.0]) + t([2.0])).data, [3.0])

    def test_radd_scalar(self):
        assert np.allclose((1.0 + t([2.0])).data, [3.0])

    def test_sub_rsub(self):
        assert np.allclose((t([5.0]) - 2.0).data, [3.0])
        assert np.allclose((5.0 - t([2.0])).data, [3.0])

    def test_mul(self):
        assert np.allclose((t([3.0]) * t([4.0])).data, [12.0])
        assert np.allclose((2.0 * t([4.0])).data, [8.0])

    def test_neg(self):
        assert np.allclose((-t([1.0, -2.0])).data, [-1.0, 2.0])

    def test_abs(self):
        assert np.allclose(t([-1.5, 2.0]).abs().data, [1.5, 2.0])


class TestGradients:
    def test_add_broadcast(self):
        check_gradients(
            lambda a, b: a + b,
            [Tensor(np.random.default_rng(0).normal(size=(3, 4))),
             Tensor(np.random.default_rng(1).normal(size=(4,)))],
        )

    def test_sub_broadcast(self):
        check_gradients(
            lambda a, b: a - b,
            [Tensor(np.random.default_rng(0).normal(size=(2, 3))),
             Tensor(np.random.default_rng(1).normal(size=(1, 3)))],
        )

    def test_mul(self):
        check_gradients(
            lambda a, b: a * b,
            [Tensor(np.random.default_rng(0).normal(size=(3, 2))),
             Tensor(np.random.default_rng(1).normal(size=(3, 2)))],
        )

    def test_neg_abs(self):
        rng = np.random.default_rng(0)
        check_gradients(lambda a: -a, [Tensor(rng.normal(size=(3,)))])
        check_gradients(
            lambda a: a.abs(),
            [Tensor(rng.normal(size=(3,)) + 0.5)],  # keep away from 0
        )


class TestUnbroadcast:
    def test_identity_when_same_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_leading_axes(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        assert out.shape == (2, 3)
        assert np.allclose(out, 4.0)

    def test_sums_size_one_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        assert np.allclose(out, 2.0)

    def test_scalar_target(self):
        out = unbroadcast(np.ones((2, 3)), ())
        assert out.shape == ()
        assert out == 6.0

    @given(
        shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_gradient_sum_preserved(self, shape):
        """Unbroadcasting must conserve the total gradient mass."""
        rng = np.random.default_rng(0)
        big_shape = (2,) + shape
        g = rng.normal(size=big_shape)
        out = unbroadcast(g, shape)
        assert out.shape == shape
        assert np.isclose(out.sum(), g.sum())


@given(
    data=arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(-100, 100),
    )
)
@settings(max_examples=40, deadline=None)
def test_add_neg_is_sub(data):
    a = Tensor(data)
    b = Tensor(data * 0.5 + 1.0)
    assert np.allclose((a + (-b)).data, (a - b).data)
