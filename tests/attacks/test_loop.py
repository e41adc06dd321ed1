"""Tests for the composable AttackLoop engine.

The loop's bit-exactness is covered by ``test_equivalence.py``; these
tests cover the step protocol and the entry points a profiler hooks:
``GradientStep.__call__`` runs once per attack iteration (with exactly one
backward) and ``AttackLoop.step`` once per epoch-wise defense batch.
"""

import numpy as np
import pytest

from repro.attacks import (
    BIM,
    FGSM,
    AttackLoop,
    BackpropGradient,
    GradientStep,
    LinfBoxProjection,
    SignStep,
)
from repro.data.loader import Batch
from repro.defenses import EpochwiseAdvTrainer
from repro.models import mnist_mlp
from repro.optim import Adam

from tests.helpers import count_passes

EPS = 0.3


@pytest.fixture(scope="module")
def model(digits_small):
    return mnist_mlp(seed=0)


@pytest.fixture(scope="module")
def batch(digits_small):
    train, _test = digits_small
    x, y = train.arrays()
    return np.asarray(x, dtype=np.float64)[:32], np.asarray(y)[:32]


def _bim_loop(model, num_steps):
    return AttackLoop(
        GradientStep(
            BackpropGradient(model),
            SignStep(EPS / num_steps),
            LinfBoxProjection(EPS),
        ),
        num_steps=num_steps,
    )


class TestStepProtocol:
    def test_step_matches_bim_step(self, model, batch):
        """AttackLoop.step is the epoch-wise defense's primitive and must
        agree with BIM.step exactly."""
        x, y = batch
        loop = _bim_loop(model, 5)
        bim = BIM(model, EPS, num_steps=5)
        assert np.array_equal(
            loop.step(x.copy(), x, y), bim.step(x.copy(), x, y)
        )

    def test_run_accepts_carried_start(self, model, batch):
        """``start=`` overrides the initializer (carried-state defense)."""
        x, y = batch
        loop = _bim_loop(model, 1)
        carried = np.clip(x + 0.1, 0.0, 1.0)
        out = loop.run(x, y, start=carried.copy())
        assert np.array_equal(out, loop.step(carried.copy(), x, y))

    def test_zero_steps_returns_initialization(self, model, batch):
        x, y = batch
        loop = AttackLoop(None, num_steps=0)
        assert np.array_equal(loop.run(x, y), x)


@pytest.fixture
def entry_calls(monkeypatch):
    """Count ``GradientStep.__call__`` and ``AttackLoop.step`` calls at
    class level, the way a tracer wraps them."""
    calls = {"GradientStep.__call__": 0, "AttackLoop.step": 0}

    def counted(cls, name):
        real = getattr(cls, name)
        key = f"{cls.__name__}.{name}"

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(GradientStep, "__call__")
    counted(AttackLoop, "step")
    return calls


class TestTracerEntryPoints:
    def test_bim10_generate_makes_ten_steps(self, model, batch, entry_calls):
        x, y = batch
        with count_passes() as passes:
            BIM(model, EPS, num_steps=10).generate(x, y)
        assert entry_calls["GradientStep.__call__"] == 10
        assert passes["backward"] == 10

    def test_fgsm_generate_makes_one_step(self, model, batch, entry_calls):
        x, y = batch
        with count_passes() as passes:
            FGSM(model, EPS).generate(x, y)
        assert entry_calls["GradientStep.__call__"] == 1
        assert passes["backward"] == 1

    def test_proposed_batch_makes_one_loop_step(self, batch, entry_calls):
        x, y = batch
        victim = mnist_mlp(seed=0)
        trainer = EpochwiseAdvTrainer(
            victim, Adam(victim.parameters(), lr=2e-3), epsilon=EPS
        )
        trainer.train_step(Batch(x=x, y=y, indices=np.arange(len(x))))
        assert entry_calls == {
            "GradientStep.__call__": 1, "AttackLoop.step": 1,
        }
