"""Tests for FGSM."""

import numpy as np
import pytest

from repro.attacks import FGSM
from repro.autograd import Tensor
from repro.nn import cross_entropy

from tests.helpers import box_tol


class TestInvariants:
    def test_linf_bound(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        x_adv = FGSM(trained_mlp, 0.1).generate(x, y)
        assert np.abs(x_adv - x).max() <= 0.1 + box_tol(x)

    def test_stays_in_unit_box(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        x_adv = FGSM(trained_mlp, 0.5).generate(x, y)
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_moves_full_epsilon_in_interior(self, trained_mlp, tiny_batch):
        """Away from the box boundary every pixel moves exactly eps."""
        x, y = tiny_batch
        x_mid = np.clip(x, 0.3, 0.7)  # keep clear of the box walls
        x_adv = FGSM(trained_mlp, 0.05).generate(x_mid, y)
        deltas = np.abs(x_adv - x_mid)
        moved = deltas[deltas > 0]
        assert np.allclose(moved, 0.05)

    def test_increases_loss(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        x_adv = FGSM(trained_mlp, 0.1).generate(x, y)
        before = cross_entropy(trained_mlp(Tensor(x)), y).item()
        after = cross_entropy(trained_mlp(Tensor(x_adv)), y).item()
        assert after > before

    def test_degrades_accuracy(self, trained_mlp, digits_small):
        _train, test = digits_small
        x, y = test.arrays()
        clean_acc = (trained_mlp.predict(x) == y).mean()
        x_adv = FGSM(trained_mlp, 0.25).generate(x, y)
        adv_acc = (trained_mlp.predict(x_adv) == y).mean()
        assert adv_acc < clean_acc - 0.3

    def test_deterministic(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        attack = FGSM(trained_mlp, 0.1)
        assert np.array_equal(attack.generate(x, y), attack.generate(x, y))

    def test_does_not_mutate_input(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        original = x.copy()
        FGSM(trained_mlp, 0.1).generate(x, y)
        assert np.array_equal(x, original)

    def test_leaves_no_parameter_grads_behind(self, trained_mlp, tiny_batch):
        """Attack gradients flow to the input; model parameters do pick up
        grads during backward, but the training loop zeroes them — verify
        the attack itself doesn't corrupt parameter values."""
        x, y = tiny_batch
        before = [p.data.copy() for p in trained_mlp.parameters()]
        FGSM(trained_mlp, 0.1).generate(x, y)
        for b, p in zip(before, trained_mlp.parameters()):
            assert np.array_equal(b, p.data)


class TestValidation:
    def test_epsilon_positive(self, trained_mlp):
        with pytest.raises(ValueError, match="epsilon"):
            FGSM(trained_mlp, 0.0)
