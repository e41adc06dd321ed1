"""Tests for free adversarial training (extension)."""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.defenses import FreeAdvTrainer, Trainer
from repro.models import mnist_mlp
from repro.optim import Adam
from tests.helpers import passes_per_batch


def make_trainer(replays=4, **kwargs):
    model = mnist_mlp(seed=0)
    return FreeAdvTrainer(
        model,
        Adam(model.parameters(), lr=2e-3),
        epsilon=0.2,
        replays=replays,
        **kwargs,
    )


class TestValidation:
    def test_bad_replays(self):
        with pytest.raises(ValueError, match="replays"):
            make_trainer(replays=0)

    def test_bad_epsilon(self):
        model = mnist_mlp(seed=0)
        with pytest.raises(ValueError):
            FreeAdvTrainer(model, Adam(model.parameters()), epsilon=-0.1)

    def test_bad_warmup(self):
        with pytest.raises(ValueError):
            make_trainer(warmup_epochs=-1)

    def test_default_step_is_epsilon(self):
        assert make_trainer().step_size == 0.2


class TestMechanics:
    def test_delta_cache_populates(self, digits_small):
        train, _ = digits_small
        trainer = make_trainer(replays=2)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=1)
        assert trainer.delta_cache_size == len(train)

    def test_delta_within_budget(self, digits_small):
        train, _ = digits_small
        trainer = make_trainer(replays=3)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=2)
        for delta in trainer._delta.values():
            assert np.abs(delta).max() <= 0.2 + 1e-12

    def test_warmup_skips_free_phase(self, digits_small):
        train, _ = digits_small
        trainer = make_trainer(warmup_epochs=2)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=2)
        assert trainer.delta_cache_size == 0

    def test_epoch_cost_scales_with_replays(self, digits_small):
        """Each replay of a batch is one more backward pass."""
        train, _ = digits_small
        loader = DataLoader(train, batch_size=64, rng=0)
        one = passes_per_batch(make_trainer(replays=1), loader)
        four = passes_per_batch(make_trainer(replays=4), loader)
        assert four["backward"] > one["backward"] * 2

    def test_loss_reported(self, digits_small):
        train, _ = digits_small
        history = make_trainer(replays=2).fit(
            DataLoader(train, batch_size=64, rng=0), epochs=2
        )
        assert all(np.isfinite(loss) for loss in history.losses)


class TestRobustness:
    def test_beats_vanilla_under_fgsm(self, digits_small):
        from repro.attacks import FGSM

        train, test = digits_small
        x, y = test.arrays()
        loader = DataLoader(train, batch_size=64, rng=0)

        free = make_trainer(replays=4, warmup_epochs=1)
        free.fit(loader, epochs=8)
        vanilla_model = mnist_mlp(seed=0)
        Trainer(vanilla_model, Adam(vanilla_model.parameters(), lr=2e-3)).fit(
            loader, epochs=8
        )

        free_acc = (
            free.model.predict(FGSM(free.model, 0.2).generate(x, y)) == y
        ).mean()
        vanilla_acc = (
            vanilla_model.predict(
                FGSM(vanilla_model, 0.2).generate(x, y)
            ) == y
        ).mean()
        assert free_acc > vanilla_acc
