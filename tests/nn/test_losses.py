"""Tests for loss functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, check_gradients
from repro.nn import CrossEntropyLoss, cross_entropy, one_hot


def logits(n=4, c=5, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n, c)))


class TestOneHot:
    def test_basic(self):
        enc = one_hot(np.array([0, 2]), 3)
        assert np.array_equal(enc, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError, match="out of range"):
            one_hot(np.array([-1]), 3)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError, match="1-D"):
            one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_accepts_tensor(self):
        enc = one_hot(Tensor(np.array([1.0])), 2)
        assert np.array_equal(enc, [[0, 1]])

    @given(
        labels=st.lists(st.integers(0, 9), min_size=1, max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, labels):
        enc = one_hot(np.array(labels), 10)
        assert np.allclose(enc.sum(axis=1), 1.0)


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        x = logits()
        y = np.array([0, 1, 2, 3])
        manual = -np.log(
            np.exp(x.data)[np.arange(4), y] / np.exp(x.data).sum(axis=1)
        ).mean()
        assert np.isclose(cross_entropy(x, y).item(), manual)

    def test_perfect_prediction_near_zero(self):
        x = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        assert cross_entropy(x, np.array([0, 1])).item() < 1e-6

    def test_uniform_logits_log_c(self):
        x = Tensor(np.zeros((3, 10)))
        assert np.isclose(
            cross_entropy(x, np.zeros(3, dtype=int)).item(), np.log(10)
        )

    def test_reductions(self):
        x = logits()
        y = np.array([0, 1, 2, 3])
        per = cross_entropy(x, y, reduction="none")
        assert per.shape == (4,)
        assert np.isclose(
            cross_entropy(x, y, reduction="sum").item(), per.data.sum()
        )
        assert np.isclose(
            cross_entropy(x, y, reduction="mean").item(), per.data.mean()
        )

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError, match="reduction"):
            cross_entropy(logits(), np.zeros(4, dtype=int), reduction="max")

    def test_label_smoothing_increases_loss_on_confident_preds(self):
        x = Tensor(np.array([[50.0, 0.0]]))
        y = np.array([0])
        plain = cross_entropy(x, y).item()
        smoothed = cross_entropy(x, y, label_smoothing=0.1).item()
        assert smoothed > plain

    def test_label_smoothing_bounds(self):
        with pytest.raises(ValueError):
            cross_entropy(logits(), np.zeros(4, dtype=int), label_smoothing=1.5)

    def test_wrong_logit_ndim(self):
        with pytest.raises(ValueError, match=r"\(N, C\)"):
            cross_entropy(Tensor(np.zeros(5)), np.array([0]))

    def test_gradients(self):
        y = np.array([0, 2, 1])
        check_gradients(
            lambda a: cross_entropy(a, y),
            [Tensor(np.random.default_rng(0).normal(size=(3, 4)))],
        )

    def test_gradient_is_softmax_minus_onehot(self):
        x = logits(2, 3)
        x.requires_grad = True
        y = np.array([0, 2])
        cross_entropy(x, y, reduction="sum").backward()
        softmax = np.exp(x.data) / np.exp(x.data).sum(axis=1, keepdims=True)
        expected = softmax - one_hot(y, 3)
        assert np.allclose(x.grad, expected)

    def test_stable_with_huge_logits(self):
        x = Tensor(np.array([[1e4, -1e4]]))
        assert np.isfinite(cross_entropy(x, np.array([1])).item())


class TestModuleWrappers:
    def test_cross_entropy_module(self):
        loss = CrossEntropyLoss()(logits(), np.array([0, 1, 2, 3]))
        assert loss.shape == ()

