"""Tests for trainer console output and history bookkeeping details."""

import pytest

from repro.data import DataLoader
from repro.defenses import Trainer
from repro.models import mnist_mlp
from repro.optim import Adam


@pytest.fixture
def setup(digits_small):
    train, test = digits_small
    model = mnist_mlp(seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=2e-3))
    return trainer, DataLoader(train, batch_size=64, rng=0), test


class TestVerboseOutput:
    def test_prints_progress_lines(self, setup, capsys):
        trainer, loader, _test = setup
        trainer.fit(loader, epochs=2, verbose=True)
        out = capsys.readouterr().out
        assert "[vanilla] epoch 1" in out
        assert "loss=" in out

    def test_silent_by_default(self, setup, capsys):
        trainer, loader, _test = setup
        trainer.fit(loader, epochs=1)
        assert capsys.readouterr().out == ""


class TestHistoryDetails:
    def test_epoch_seconds_positive(self, setup):
        trainer, loader, _test = setup
        history = trainer.fit(loader, epochs=3)
        assert all(s > 0 for s in history.epoch_seconds)
