"""Tests for shape operations and their gradients."""

import numpy as np

from repro.autograd import Tensor, check_gradients, flatten, reshape, transpose


def randn(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestForward:
    def test_reshape(self):
        x = Tensor(np.arange(6.0))
        assert reshape(x, (2, 3)).shape == (2, 3)
        assert x.reshape(3, 2).shape == (3, 2)

    def test_reshape_minus_one(self):
        assert randn(2, 3, 4).reshape(2, -1).shape == (2, 12)

    def test_transpose_default_reverses(self):
        assert transpose(randn(2, 3, 4)).shape == (4, 3, 2)

    def test_transpose_axes(self):
        assert transpose(randn(2, 3, 4), (1, 0, 2)).shape == (3, 2, 4)

    def test_getitem_slice(self):
        x = Tensor(np.arange(10.0))
        assert np.allclose(x[2:5].data, [2.0, 3.0, 4.0])

    def test_getitem_fancy(self):
        x = Tensor(np.arange(10.0))
        assert np.allclose(x[np.array([0, 0, 3])].data, [0.0, 0.0, 3.0])

    def test_flatten(self):
        assert flatten(randn(2, 3, 4)).shape == (2, 12)
        assert flatten(randn(2, 3, 4), start_axis=2).shape == (2, 3, 4)


class TestGradients:
    def test_reshape(self):
        check_gradients(lambda a: a.reshape(6), [randn(2, 3)])

    def test_transpose(self):
        check_gradients(lambda a: a.transpose((2, 0, 1)), [randn(2, 3, 4)])

    def test_getitem_slice(self):
        check_gradients(lambda a: a[1:3, ::2], [randn(4, 6)])

    def test_getitem_fancy_accumulates(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(x.grad, [2.0, 0.0, 1.0])

    def test_flatten(self):
        check_gradients(lambda a: flatten(a), [randn(2, 3, 2)])

    def test_getitem_boolean_mask(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        x[mask].sum().backward()
        assert np.allclose(x.grad, [1.0, 0.0, 1.0, 0.0])
