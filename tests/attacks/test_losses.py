"""Tests for alternative attack objectives."""

import numpy as np
import pytest

from repro.attacks import BIM, FGSM, margin_loss
from repro.autograd import Tensor, check_gradients

from tests.helpers import box_tol


class TestMarginLoss:
    def test_value_matches_manual(self):
        logits = Tensor(np.array([[2.0, 5.0, 1.0]]))
        labels = np.array([0])
        # best other (5.0) - true (2.0) = 3.0
        assert margin_loss(logits, labels).item() == pytest.approx(3.0)

    def test_negative_when_confidently_correct(self):
        logits = Tensor(np.array([[10.0, 0.0]]))
        assert margin_loss(logits, np.array([0])).item() == pytest.approx(-10.0)

    def test_reductions(self):
        logits = Tensor(np.array([[1.0, 2.0], [3.0, 0.0]]))
        labels = np.array([0, 1])
        per = margin_loss(logits, labels, reduction="none")
        assert per.shape == (2,)
        assert margin_loss(logits, labels, reduction="sum").item() == (
            pytest.approx(per.data.sum())
        )

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            margin_loss(Tensor(np.zeros((1, 2))), np.array([0]), "prod")

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            margin_loss(Tensor(np.zeros(3)), np.array([0]))

    def test_gradients(self):
        labels = np.array([0, 1, 2])
        check_gradients(
            lambda a: margin_loss(a, labels),
            [Tensor(np.random.default_rng(0).normal(size=(3, 4)))],
        )

    def test_gradient_does_not_saturate(self, trained_mlp, tiny_batch):
        """Cross-entropy gradients vanish on confident predictions; the
        margin gradient does not."""
        from repro.attacks import BackpropGradient
        from repro.nn import cross_entropy

        x, y = tiny_batch
        # Scale up logits to simulate extreme confidence.
        trained_mlp.head.weight.data *= 20.0
        try:
            ce_grad = BackpropGradient(trained_mlp, cross_entropy)(x, y)
            margin_grad = BackpropGradient(trained_mlp, margin_loss)(x, y)
            assert np.abs(margin_grad).mean() > np.abs(ce_grad).mean()
        finally:
            trained_mlp.head.weight.data /= 20.0


class TestMarginAttacks:
    def test_fgsm_with_margin_loss(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        attack = FGSM(trained_mlp, 0.2, loss_fn=margin_loss)
        x_adv = attack.generate(x, y)
        assert np.abs(x_adv - x).max() <= 0.2 + box_tol(x)

    def test_margin_bim_at_least_as_strong(self, trained_mlp, digits_small):
        _train, test = digits_small
        x, y = test.arrays()
        eps = 0.15
        ce_acc = (
            trained_mlp.predict(
                BIM(trained_mlp, eps, num_steps=10).generate(x, y)
            ) == y
        ).mean()
        margin_acc = (
            trained_mlp.predict(
                BIM(
                    trained_mlp, eps, num_steps=10, loss_fn=margin_loss
                ).generate(x, y)
            ) == y
        ).mean()
        assert margin_acc <= ce_acc + 0.05
