"""Tests for the ATDA trainer."""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.loader import Batch
from repro.defenses import AtdaTrainer
from repro.models import mnist_mlp
from repro.optim import Adam
from tests.helpers import passes_per_batch


def make_trainer(**kwargs):
    model = mnist_mlp(seed=0)
    return AtdaTrainer(
        model, Adam(model.parameters(), lr=2e-3), epsilon=0.2, **kwargs
    )


def make_batch(digits_small, n=16):
    train, _ = digits_small
    x, y = train.arrays()
    return Batch(x=x[:n], y=y[:n], indices=np.arange(n))


class TestConstruction:
    def test_requires_embedding_model(self):
        from repro.nn import Dense

        plain = Dense(4, 2, rng=0)
        with pytest.raises(TypeError, match="embed"):
            AtdaTrainer(plain, Adam(plain.parameters()), epsilon=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_trainer(clean_weight=-0.1)

    def test_centers_lazy(self):
        assert make_trainer().centers is None


class TestLoss:
    def test_batch_loss_finite_and_positive(self, digits_small):
        trainer = make_trainer()
        loss = trainer.compute_batch_loss(make_batch(digits_small))
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_centers_created_and_updated(self, digits_small):
        trainer = make_trainer()
        trainer.compute_batch_loss(make_batch(digits_small))
        assert trainer.centers is not None
        assert trainer.centers.centers.shape[0] == 10
        assert np.abs(trainer.centers.centers).sum() > 0

    def test_da_terms_contribute(self, digits_small):
        """Turning the DA weights off must change the loss."""
        batch = make_batch(digits_small)
        with_da = make_trainer(lambda_uda=1.0, lambda_sda=0.1)
        without = make_trainer(lambda_uda=0.0, lambda_sda=0.0)
        loss_with = with_da.compute_batch_loss(batch).item()
        loss_without = without.compute_batch_loss(batch).item()
        assert loss_with != pytest.approx(loss_without)

    def test_warmup_uses_clean_loss_only(self, digits_small):
        from repro.autograd import Tensor
        from repro.nn import cross_entropy

        trainer = make_trainer(warmup_epochs=3)
        batch = make_batch(digits_small)
        clean = cross_entropy(
            trainer.model(Tensor(batch.x)), batch.y
        ).item()
        assert trainer.train_step(batch) == [pytest.approx(clean)]
        assert trainer.centers is None  # no DA terms during warmup


class TestTraining:
    def test_fit_improves_fgsm_robustness(self, digits_small):
        from repro.attacks import FGSM

        train, test = digits_small
        trainer = make_trainer(warmup_epochs=2)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=12)
        x, y = test.arrays()
        model = trainer.model
        adv = FGSM(model, 0.2).generate(x, y)
        # Undefended models score ~0 here on the tiny split.
        assert (model.predict(adv) == y).mean() > 0.1

    def test_costlier_than_fgsm_adv_cheaper_than_iter(self, digits_small):
        """Table I cost ordering: fgsm_adv < atda < bim10_adv, counted.

        ATDA runs FGSM-Adv's passes plus its domain-adaptation terms on
        the same embeddings (more autograd ops per batch); BIM(10)-Adv
        runs 11 backward passes per batch to ATDA's 2.
        """
        from repro.defenses import FgsmAdvTrainer, IterAdvTrainer

        train, _ = digits_small
        loader = DataLoader(train, batch_size=64, rng=0)

        model_f = mnist_mlp(seed=0)
        fgsm = passes_per_batch(FgsmAdvTrainer(
            model_f, Adam(model_f.parameters()), epsilon=0.2
        ), loader)
        atda = passes_per_batch(make_trainer(), loader)
        model_i = mnist_mlp(seed=0)
        bim = passes_per_batch(IterAdvTrainer(
            model_i, Adam(model_i.parameters()), epsilon=0.2, num_steps=10
        ), loader)
        assert fgsm["backward"] == atda["backward"]
        assert fgsm["ops"] < atda["ops"]
        assert atda["backward"] < bim["backward"]
