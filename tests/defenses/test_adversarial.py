"""Tests for FGSM-Adv and BIM(k)-Adv trainers."""

import numpy as np
import pytest

from repro.attacks import FGSM
from repro.data import DataLoader
from repro.defenses import FgsmAdvTrainer, IterAdvTrainer
from repro.models import mnist_mlp
from repro.optim import Adam
from tests.helpers import passes_per_batch


def make(name_cls, digits_small, epochs=0, **kwargs):
    model = mnist_mlp(seed=0)
    trainer = name_cls(
        model, Adam(model.parameters(), lr=2e-3), epsilon=0.2, **kwargs
    )
    if epochs:
        train, _ = digits_small
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=epochs)
    return trainer


class TestFgsmAdv:
    def test_trains_and_gains_fgsm_robustness(self, digits_small):
        train, test = digits_small
        trainer = make(FgsmAdvTrainer, digits_small, epochs=12,
                       warmup_epochs=2)
        x, y = test.arrays()
        model = trainer.model
        clean_acc = (model.predict(x) == y).mean()
        x_adv = FGSM(model, 0.2).generate(x, y)
        adv_acc = (model.predict(x_adv) == y).mean()
        # Thresholds calibrated for the tiny 20-per-class split: an
        # undefended model scores ~0 under this attack.
        assert clean_acc > 0.8
        assert adv_acc > 0.1

    def test_attack_lazily_bound_to_model(self, digits_small):
        trainer = make(FgsmAdvTrainer, digits_small)
        assert trainer.attack is None
        attack = trainer._ensure_attack()
        assert attack.model is trainer.model
        assert trainer._ensure_attack() is attack  # cached

    def test_warmup_skips_attack(self, digits_small):
        train, _ = digits_small
        trainer = make(FgsmAdvTrainer, digits_small, warmup_epochs=2)
        loader = DataLoader(train, batch_size=64, rng=0)
        trainer.fit(loader, epochs=2)
        assert trainer.attack is None  # never instantiated during warmup
        trainer.fit(loader, epochs=1)
        assert trainer.attack is not None

    def test_in_warmup_flag(self, digits_small):
        trainer = make(FgsmAdvTrainer, digits_small, warmup_epochs=3)
        assert trainer.in_warmup
        trainer.epoch = 3
        assert not trainer.in_warmup

    def test_clean_weight_validation(self, digits_small):
        with pytest.raises(ValueError):
            make(FgsmAdvTrainer, digits_small, clean_weight=1.5)

    def test_warmup_validation(self, digits_small):
        with pytest.raises(ValueError):
            make(FgsmAdvTrainer, digits_small, warmup_epochs=-1)


class TestIterAdv:
    def test_uses_bim_attack(self, digits_small):
        trainer = make(IterAdvTrainer, digits_small, num_steps=7)
        attack = trainer._ensure_attack()
        assert attack.num_steps == 7

    def test_name_with_steps(self, digits_small):
        trainer = make(IterAdvTrainer, digits_small, num_steps=10)
        assert trainer.name_with_steps == "bim10_adv"

    def test_costlier_than_fgsm_adv(self, digits_small):
        """Iter-Adv's per-batch cost must exceed Single-Adv's — the paper's
        efficiency argument in Table I, counted in backward passes."""
        train, _ = digits_small
        loader = DataLoader(train, batch_size=64, rng=0)

        fgsm = passes_per_batch(make(FgsmAdvTrainer, digits_small), loader)
        bim = passes_per_batch(
            make(IterAdvTrainer, digits_small, num_steps=10), loader
        )
        assert bim["backward"] > fgsm["backward"] * 1.5

    def test_gains_bim_robustness(self, digits_small,
                                  undefended_bim_accuracy):
        from repro.attacks import BIM

        train, test = digits_small
        trainer = make(IterAdvTrainer, digits_small, epochs=12,
                       num_steps=5, warmup_epochs=2)
        x, y = test.arrays()
        model = trainer.model
        x_adv = BIM(model, 0.2, num_steps=5).generate(x, y)
        adv_acc = (model.predict(x_adv) == y).mean()
        # Beats the undefended model (~0 on this budget) by a fixed margin.
        assert adv_acc >= undefended_bim_accuracy(12) + 0.05

    def test_mixture_loss_between_clean_and_adv(self, digits_small):
        """alpha=1 must reduce to the vanilla loss."""
        train, _ = digits_small
        loader = DataLoader(train, batch_size=32, rng=0, shuffle=False)
        batch = next(iter(loader))

        t_mixed = make(FgsmAdvTrainer, digits_small, clean_weight=1.0)
        from repro.autograd import Tensor
        from repro.nn import cross_entropy

        loss = t_mixed.compute_batch_loss(batch).item()
        clean = cross_entropy(t_mixed.model(Tensor(batch.x)), batch.y).item()
        assert np.isclose(loss, clean)
