"""Tests for reduction operations and their gradients."""

import numpy as np

from repro.autograd import Tensor, check_gradients, logsumexp


def randn(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestForward:
    def test_sum_all(self):
        assert Tensor(np.ones((2, 3))).sum().item() == 6.0

    def test_sum_axis(self):
        out = Tensor(np.ones((2, 3))).sum(axis=0)
        assert out.shape == (3,)
        assert np.allclose(out.data, 2.0)

    def test_sum_keepdims(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_sum_negative_axis(self):
        out = Tensor(np.ones((2, 3))).sum(axis=-1)
        assert out.shape == (2,)

    def test_sum_multi_axis(self):
        out = Tensor(np.ones((2, 3, 4))).sum(axis=(0, 2))
        assert out.shape == (3,)
        assert np.allclose(out.data, 8.0)

    def test_mean(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.mean().item() == 2.5
        assert np.allclose(x.mean(axis=0).data, [1.5, 2.5, 3.5])

    def test_logsumexp_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        ours = logsumexp(Tensor(x), axis=1).data
        theirs = np.log(np.exp(x).sum(axis=1))
        assert np.allclose(ours, theirs)

    def test_logsumexp_stable_at_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = logsumexp(x, axis=1)
        assert np.isfinite(out.data).all()
        assert np.isclose(out.item(), 1000.0 + np.log(2.0))

    def test_logsumexp_keepdims(self):
        out = logsumexp(randn(2, 3), axis=1, keepdims=True)
        assert out.shape == (2, 1)


class TestGradients:
    def test_sum(self):
        check_gradients(lambda a: a.sum(), [randn(3, 4)])

    def test_sum_axis(self):
        check_gradients(lambda a: a.sum(axis=0), [randn(3, 4)])

    def test_sum_keepdims(self):
        check_gradients(lambda a: a.sum(axis=1, keepdims=True), [randn(3, 4)])

    def test_mean(self):
        check_gradients(lambda a: a.mean(), [randn(3, 4)])

    def test_mean_axis(self):
        check_gradients(lambda a: a.mean(axis=(0, 2)), [randn(2, 3, 4)])

    def test_logsumexp(self):
        check_gradients(lambda a: logsumexp(a, axis=1), [randn(3, 6)])

    def test_logsumexp_all_gradient_is_softmax(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        logsumexp(x, axis=1).sum().backward()
        expected = np.exp(x.data) / np.exp(x.data).sum()
        assert np.allclose(x.grad, expected)
