"""Tests for the vanilla Trainer and TrainingHistory."""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.defenses import (
    Trainer,
    TrainingHistory,
    build_trainer,
    defense_names,
)
from repro.models import mnist_mlp
from repro.optim import Adam


def make_trainer(lr=2e-3):
    model = mnist_mlp(seed=0)
    return Trainer(model, Adam(model.parameters(), lr=lr))


class TestFit:
    def test_loss_decreases(self, digits_small):
        train, _test = digits_small
        trainer = make_trainer()
        history = trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=6)
        assert history.losses[-1] < history.losses[0]

    def test_history_lengths(self, digits_small):
        train, _test = digits_small
        history = make_trainer().fit(
            DataLoader(train, batch_size=64, rng=0), epochs=3
        )
        assert len(history.losses) == 3
        assert len(history.epoch_seconds) == 3

    def test_reaches_high_clean_accuracy(self, digits_small):
        train, test = digits_small
        trainer = make_trainer()
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=10)
        x, y = test.arrays()
        assert (trainer.model.predict(x) == y).mean() > 0.85

    def test_epoch_counter_advances(self, digits_small):
        train, _ = digits_small
        trainer = make_trainer()
        loader = DataLoader(train, batch_size=64, rng=0)
        trainer.fit(loader, epochs=2)
        trainer.fit(loader, epochs=2)
        assert trainer.epoch == 4

    def test_invalid_epochs(self, digits_small):
        train, _ = digits_small
        with pytest.raises(ValueError):
            make_trainer().fit(DataLoader(train, rng=0), epochs=0)


def one_warmup_epoch(name, train):
    """Mean loss and parameters after one epoch of ``name`` with
    ``warmup_epochs=1`` (same seed and loader for every defense)."""
    trainer = build_trainer(
        name, mnist_mlp(seed=0), epsilon=0.2, lr=2e-3, warmup_epochs=1
    )
    history = trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=1)
    return history.losses[0], [p.data for p in trainer.model.parameters()]


class TestWarmup:
    # defense_names() holds every Table I row (bim10_adv and bim30_adv
    # included) and every extension.
    @pytest.mark.parametrize("name", defense_names())
    def test_warmup_epoch_is_a_vanilla_epoch(self, name, digits_small):
        train, _ = digits_small
        want_loss, want_params = one_warmup_epoch("vanilla", train)
        loss, params = one_warmup_epoch(name, train)
        assert loss == want_loss
        assert len(params) == len(want_params)
        for got, want in zip(params, want_params):
            assert np.array_equal(got, want)

    def test_negative_warmup_raises(self):
        model = mnist_mlp(seed=0)
        with pytest.raises(ValueError, match="warmup_epochs"):
            Trainer(model, Adam(model.parameters()), warmup_epochs=-1)


class TestTrainingHistory:
    def test_time_per_epoch(self):
        history = TrainingHistory(epoch_seconds=[1.0, 3.0])
        assert history.time_per_epoch == 2.0
        assert history.total_time == 4.0

    def test_empty(self):
        assert TrainingHistory().time_per_epoch == 0.0
