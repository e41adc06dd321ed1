"""Tests for the composable AttackLoop engine.

The unmasked path's bit-exactness is covered by ``test_equivalence.py``;
these tests cover the engine-only behaviours: batched early stopping,
multi-restart, the step protocol and the workspace-pooled compaction.
"""

import numpy as np
import pytest

from repro.attacks import (
    BIM,
    PGD,
    AttackLoop,
    BackpropGradient,
    GradientStep,
    LinfBoxProjection,
    Misclassified,
    SignStep,
    UniformLinfInit,
    zero_init,
)
from repro.models import mnist_mlp
from repro.runtime import get_workspace

EPS = 0.3


@pytest.fixture(scope="module")
def model(digits_small):
    train, _test = digits_small
    return mnist_mlp(seed=0)


@pytest.fixture(scope="module")
def batch(digits_small):
    train, _test = digits_small
    x, y = train.arrays()
    return np.asarray(x, dtype=np.float64)[:32], np.asarray(y)[:32]


def _bim_loop(model, num_steps, early_stop=False, restarts=1, rng=None):
    step_size = EPS / num_steps
    initializer = (
        UniformLinfInit(EPS, np.random.default_rng(rng))
        if rng is not None
        else zero_init
    )
    return AttackLoop(
        model,
        GradientStep(
            BackpropGradient(model),
            SignStep(step_size),
            LinfBoxProjection(EPS),
        ),
        num_steps=num_steps,
        initializer=initializer,
        stop=Misclassified() if (early_stop or restarts > 1) else None,
        early_stop=early_stop,
        restarts=restarts,
    )


class TestEarlyStop:
    def test_retired_examples_keep_their_iterate(self, model, batch):
        """Rows retire the moment the forward pass shows them fooled, and
        every row of the masked run matches SOME iterate of the unmasked
        run (rows are independent through an MLP, so compaction must not
        change any surviving row's trajectory)."""
        x, y = batch
        masked = _bim_loop(model, 6, early_stop=True).run(x, y)
        unmasked_iterates = [x] + BIM(
            model, EPS, num_steps=6
        ).generate_with_intermediates(x, y)
        for row in range(len(x)):
            assert any(
                np.array_equal(masked[row], it[row])
                for it in unmasked_iterates
            ), f"row {row} matches no unmasked iterate"

    def test_masked_run_is_as_strong(self, model, batch):
        """Early stop must not weaken the attack: every example fooled by
        the unmasked run is also fooled by the masked run (a fooled row is
        frozen, never un-fooled by later steps)."""
        x, y = batch
        masked = _bim_loop(model, 6, early_stop=True).run(x, y)
        unmasked = _bim_loop(model, 6, early_stop=False).run(x, y)
        fooled_masked = model.predict(masked) != y
        fooled_unmasked = model.predict(unmasked) != y
        assert fooled_masked.sum() >= fooled_unmasked.sum()

    def test_identical_when_nothing_retires(self, model, batch):
        """With a stop condition that never fires, the masked driver must
        be bit-identical to the unmasked one."""
        x, y = batch
        never = lambda model, xa, ya, state: np.zeros(len(ya), dtype=bool)
        loop = _bim_loop(model, 4, early_stop=False)
        loop.stop = never
        loop.early_stop = True
        masked = loop.run(x, y)
        unmasked = _bim_loop(model, 4, early_stop=False).run(x, y)
        assert np.array_equal(masked, unmasked)

    def test_workspace_buffers_released(self, model, batch):
        """Compaction scratch goes back to the pool: a repeat run with the
        identical retirement schedule allocates nothing new."""
        x, y = batch
        workspace = get_workspace()
        loop = _bim_loop(model, 4, early_stop=True)
        loop.run(x, y)  # warm the pool
        misses_before = workspace.misses
        loop.run(x, y)  # deterministic: same shapes, served from the pool
        assert workspace.misses == misses_before


class TestRestarts:
    def test_restarts_only_reattack_survivors(self, model, batch):
        """Extra restarts never lose already-fooled examples."""
        x, y = batch
        single = _bim_loop(model, 3, rng=5).run(x, y)
        multi = _bim_loop(model, 3, restarts=3, rng=5).run(x, y)
        fooled_single = model.predict(single) != y
        fooled_multi = model.predict(multi) != y
        assert (fooled_multi | ~fooled_single).all() or (
            fooled_multi.sum() >= fooled_single.sum()
        )

    def test_restarts_preserve_fooled_rows_bitwise(self, model, batch):
        """Rows fooled on the first run are returned untouched."""
        x, y = batch
        rng_a = np.random.default_rng(5)
        loop_single = AttackLoop(
            model,
            GradientStep(
                BackpropGradient(model),
                SignStep(EPS / 3),
                LinfBoxProjection(EPS),
            ),
            num_steps=3,
            initializer=UniformLinfInit(EPS, rng_a),
            stop=Misclassified(),
        )
        first = loop_single.run(x, y)
        fooled = model.predict(first) != y
        rng_b = np.random.default_rng(5)
        loop_multi = AttackLoop(
            model,
            GradientStep(
                BackpropGradient(model),
                SignStep(EPS / 3),
                LinfBoxProjection(EPS),
            ),
            num_steps=3,
            initializer=UniformLinfInit(EPS, rng_b),
            stop=Misclassified(),
            restarts=2,
        )
        multi = loop_multi.run(x, y)
        assert np.array_equal(multi[fooled], first[fooled])

    def test_restarts_require_stop(self, model):
        with pytest.raises(ValueError, match="stop condition"):
            AttackLoop(
                model,
                GradientStep(
                    BackpropGradient(model),
                    SignStep(0.1),
                    LinfBoxProjection(EPS),
                ),
                num_steps=1,
                restarts=2,
            )

    def test_early_stop_requires_stop(self, model):
        with pytest.raises(ValueError, match="stop condition"):
            AttackLoop(
                model,
                GradientStep(
                    BackpropGradient(model),
                    SignStep(0.1),
                    LinfBoxProjection(EPS),
                ),
                num_steps=1,
                early_stop=True,
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
        loop = AttackLoop(model, None, num_steps=0)
        assert np.array_equal(loop.run(x, y), x)


class TestPgdEarlyStopIntegration:
    def test_pgd_early_stop_flag(self, model, batch):
        """The attack classes expose the engine's early_stop switch."""
        x, y = batch
        attack = PGD(model, EPS, num_steps=5, rng=3, early_stop=True)
        x_adv = attack.generate(x, y)
        assert x_adv.shape == x.shape
        assert np.all(np.abs(x_adv - x) <= EPS + 1e-12)
        plain = PGD(model, EPS, num_steps=5, rng=3)
        fooled_es = (model.predict(x_adv) != y).sum()
        fooled_plain = (model.predict(plain.generate(x, y)) != y).sum()
        assert fooled_es >= fooled_plain
