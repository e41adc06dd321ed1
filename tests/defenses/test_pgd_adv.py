"""Tests for PGD adversarial training (extension)."""

import numpy as np
import pytest

from repro.attacks import PGD, UniformLinfInit
from repro.data import DataLoader
from repro.defenses import PgdAdvTrainer, build_trainer
from repro.models import mnist_mlp
from repro.optim import Adam
from tests.helpers import passes_per_batch


def make_trainer(**kwargs):
    model = mnist_mlp(seed=0)
    return PgdAdvTrainer(
        model, Adam(model.parameters(), lr=2e-3), epsilon=0.2, **kwargs
    )


class TestConstruction:
    def test_attack_is_pgd(self):
        trainer = make_trainer(num_steps=5, rng=0)
        attack = trainer._ensure_attack()
        assert isinstance(attack, PGD)
        assert attack.num_steps == 5
        assert isinstance(attack.loop.initializer, UniformLinfInit)

    def test_registry_builds_it(self):
        trainer = build_trainer("pgd_adv", mnist_mlp(seed=0), epsilon=0.2)
        assert isinstance(trainer, PgdAdvTrainer)

    def test_registry_builds_free(self):
        from repro.defenses import FreeAdvTrainer

        trainer = build_trainer("free_adv", mnist_mlp(seed=0), epsilon=0.2)
        assert isinstance(trainer, FreeAdvTrainer)


class TestTraining:
    def test_gains_robustness(self, digits_small):
        from repro.attacks import BIM

        train, test = digits_small
        trainer = make_trainer(num_steps=5, warmup_epochs=2, rng=0)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=12)
        x, y = test.arrays()
        model = trainer.model
        adv_acc = (
            model.predict(BIM(model, 0.2, num_steps=5).generate(x, y)) == y
        ).mean()
        assert adv_acc > 0.08  # undefended would be ~0

    def test_cost_similar_to_bim_adv(self, digits_small):
        """PGD(5)-Adv pays BIM(5)-Adv's price: 5 attack + 1 training
        backward pass per batch (the random start costs no pass)."""
        from repro.defenses import IterAdvTrainer

        train, _ = digits_small
        loader = DataLoader(train, batch_size=64, rng=0)
        assert len(loader) > 1
        pgd = passes_per_batch(
            make_trainer(num_steps=5, warmup_epochs=0, rng=0), loader
        )
        model = mnist_mlp(seed=0)
        bim = passes_per_batch(
            IterAdvTrainer(
                model, Adam(model.parameters()), epsilon=0.2, num_steps=5,
                warmup_epochs=0,
            ),
            loader,
        )
        assert pgd["backward"] == bim["backward"] == 6
