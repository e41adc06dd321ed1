"""Tests for the TRADES trainer and KL divergence."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.data import DataLoader
from repro.data.loader import Batch
from repro.defenses import TradesTrainer, kl_divergence
from repro.models import mnist_mlp
from repro.optim import Adam

from tests.helpers import box_tol


def make_trainer(**kwargs):
    model = mnist_mlp(seed=0)
    return TradesTrainer(
        model, Adam(model.parameters(), lr=2e-3), epsilon=0.2, **kwargs
    )


def make_batch(digits_small, n=16):
    train, _ = digits_small
    x, y = train.arrays()
    return Batch(x=x[:n], y=y[:n], indices=np.arange(n))


class TestKLDivergence:
    def test_zero_for_identical(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        assert kl_divergence(logits, logits).item() == pytest.approx(0.0)

    def test_non_negative(self):
        p = Tensor(np.random.default_rng(0).normal(size=(6, 5)))
        q = Tensor(np.random.default_rng(1).normal(size=(6, 5)))
        assert kl_divergence(p, q).item() >= 0.0

    def test_asymmetric(self):
        # Note: permuted logit vectors give symmetric KL; use genuinely
        # different distributions.
        p = Tensor(np.array([[3.0, 0.0, 0.0]]))
        q = Tensor(np.array([[1.0, 1.0, 0.0]]))
        assert kl_divergence(p, q).item() != pytest.approx(
            kl_divergence(q, p).item()
        )

    def test_matches_manual(self):
        p_logits = np.array([[1.0, 2.0]])
        q_logits = np.array([[2.0, 0.5]])
        p = np.exp(p_logits) / np.exp(p_logits).sum()
        q = np.exp(q_logits) / np.exp(q_logits).sum()
        manual = float((p * np.log(p / q)).sum())
        ours = kl_divergence(Tensor(p_logits), Tensor(q_logits)).item()
        assert ours == pytest.approx(manual)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        check_gradients(
            lambda a, b: kl_divergence(a, b),
            [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))],
        )


class TestTradesTrainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_trainer(beta=0.0)
        with pytest.raises(ValueError):
            make_trainer(num_steps=0)
        with pytest.raises(ValueError):
            make_trainer(warmup_epochs=-1)

    def test_default_step_size(self):
        assert make_trainer(num_steps=10).step_size == pytest.approx(0.04)

    def test_warmup_is_pure_ce(self, digits_small):
        from repro.nn import cross_entropy

        trainer = make_trainer(warmup_epochs=2)
        batch = make_batch(digits_small)
        loss = trainer.compute_batch_loss(batch).item()
        clean = cross_entropy(
            trainer.model(Tensor(batch.x)), batch.y
        ).item()
        assert loss == pytest.approx(clean)

    def test_loss_exceeds_natural_after_warmup(self, digits_small):
        from repro.nn import cross_entropy

        trainer = make_trainer(num_steps=3, beta=3.0)
        batch = make_batch(digits_small)
        loss = trainer.compute_batch_loss(batch).item()
        natural = cross_entropy(
            trainer.model(Tensor(batch.x)), batch.y
        ).item()
        assert loss > natural  # KL term is non-negative, here positive

    def test_inner_max_stays_in_ball(self, digits_small):
        trainer = make_trainer(num_steps=5)
        batch = make_batch(digits_small, n=8)
        clean_logits = trainer.model(Tensor(batch.x)).data
        x_adv = trainer._maximise_kl(batch.x, clean_logits)
        assert np.abs(x_adv - batch.x).max() <= 0.2 + box_tol(batch.x)
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_training_gains_robustness(self, digits_small,
                                       undefended_bim_accuracy):
        from repro.attacks import BIM

        train, test = digits_small
        trainer = make_trainer(num_steps=5, beta=3.0, warmup_epochs=2)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=12)
        x, y = test.arrays()
        model = trainer.model
        adv_acc = (
            model.predict(BIM(model, 0.2, num_steps=5).generate(x, y)) == y
        ).mean()
        # At this tiny scale TRADES gains are modest but strictly above the
        # undefended baseline (~0.0).
        assert adv_acc > undefended_bim_accuracy(12)

    def test_registry(self):
        from repro.defenses import build_trainer

        trainer = build_trainer("trades", mnist_mlp(seed=0), epsilon=0.2)
        assert isinstance(trainer, TradesTrainer)
