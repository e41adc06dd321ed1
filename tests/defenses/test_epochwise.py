"""Tests for the paper's proposed epoch-wise adversarial trainer.

These tests verify the Figure 3b control flow behaviourally: one
perturbation step per epoch, cross-epoch carry, projection into the
epsilon-ball, and periodic reset.
"""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.loader import Batch
from repro.defenses import EpochwiseAdvTrainer
from repro.models import mnist_mlp
from repro.optim import Adam

from tests.helpers import box_tol, passes_per_batch


def make_trainer(epsilon=0.2, **kwargs):
    model = mnist_mlp(seed=0)
    return EpochwiseAdvTrainer(
        model, Adam(model.parameters(), lr=2e-3), epsilon=epsilon, **kwargs
    )


def make_batch(digits_small, n=8):
    train, _ = digits_small
    x, y = train.arrays()
    return Batch(x=x[:n], y=y[:n], indices=np.arange(n))


class TestDefaults:
    def test_default_step_size_is_epsilon(self):
        assert make_trainer(epsilon=0.2).step_size == 0.2

    def test_paper_reset_interval(self):
        assert make_trainer().reset_interval == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            make_trainer(epsilon=-1.0)
        with pytest.raises(ValueError):
            make_trainer(reset_interval=-1)
        with pytest.raises(ValueError):
            make_trainer(step_size=0.0)
        with pytest.raises(ValueError):
            make_trainer(clean_weight=2.0)


class TestCacheMechanics:
    def test_first_step_starts_from_clean(self, digits_small):
        trainer = make_trainer(epsilon=0.2, step_size=0.02)
        batch = make_batch(digits_small)
        x_adv = trainer.adversarial_batch(batch)
        # After ONE step of size 0.02, perturbation is at most 0.02.
        assert np.abs(x_adv - batch.x).max() <= 0.02 + box_tol(batch.x)

    def test_cache_populated_after_step(self, digits_small):
        trainer = make_trainer()
        batch = make_batch(digits_small)
        assert trainer.cache_size == 0
        trainer.adversarial_batch(batch)
        assert trainer.cache_size == len(batch.x)

    def test_perturbation_accumulates_across_calls(self, digits_small):
        """The epoch-wise iteration: k calls behave like k BIM steps."""
        trainer = make_trainer(epsilon=0.2, step_size=0.02)
        batch = make_batch(digits_small)
        norms = []
        for _ in range(5):
            x_adv = trainer.adversarial_batch(batch)
            norms.append(np.abs(x_adv - batch.x).max())
        assert all(b >= a - box_tol(batch.x) for a, b in zip(norms, norms[1:]))
        assert norms[-1] > norms[0]

    def test_total_perturbation_projected_to_epsilon(self, digits_small):
        trainer = make_trainer(epsilon=0.1, step_size=0.08)
        batch = make_batch(digits_small)
        for _ in range(10):
            x_adv = trainer.adversarial_batch(batch)
        assert np.abs(x_adv - batch.x).max() <= 0.1 + box_tol(batch.x)

    def test_examples_stay_in_unit_box(self, digits_small):
        trainer = make_trainer(epsilon=0.3)
        batch = make_batch(digits_small)
        for _ in range(5):
            x_adv = trainer.adversarial_batch(batch)
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_cache_keyed_by_dataset_index(self, digits_small):
        """Rows must be re-associated by index even if batch order changes."""
        trainer = make_trainer(epsilon=0.2, step_size=0.02)
        batch = make_batch(digits_small, n=4)
        trainer.adversarial_batch(batch)
        flipped = Batch(
            x=batch.x[::-1].copy(),
            y=batch.y[::-1].copy(),
            indices=batch.indices[::-1].copy(),
        )
        cached = trainer._delta.lookup(flipped.indices, flipped.x)
        # cached rows reconstruct clip(clean + delta) in flipped order,
        # where the delta is keyed by dataset index.
        for row, index in enumerate(flipped.indices):
            assert np.array_equal(
                cached[row],
                np.clip(
                    flipped.x[row] + trainer.delta_store.delta(int(index)),
                    0.0,
                    1.0,
                ),
            )

    def test_reset_cache(self, digits_small):
        trainer = make_trainer()
        trainer.adversarial_batch(make_batch(digits_small))
        trainer.reset_cache()
        assert trainer.cache_size == 0


class TestResetSchedule:
    def test_reset_at_interval(self, digits_small):
        trainer = make_trainer(reset_interval=2, warmup_epochs=0)
        trainer.adversarial_batch(make_batch(digits_small))
        trainer.on_epoch_start(1)
        assert trainer.cache_size > 0
        trainer.on_epoch_start(2)
        assert trainer.cache_size == 0

    def test_no_reset_at_epoch_zero(self, digits_small):
        trainer = make_trainer(reset_interval=2, warmup_epochs=0)
        trainer.adversarial_batch(make_batch(digits_small))
        trainer.on_epoch_start(0)
        assert trainer.cache_size > 0

    def test_reset_offset_by_warmup(self, digits_small):
        trainer = make_trainer(reset_interval=2, warmup_epochs=3)
        trainer.adversarial_batch(make_batch(digits_small))
        trainer.on_epoch_start(4)  # adv_epoch = 1 -> no reset
        assert trainer.cache_size > 0
        trainer.on_epoch_start(5)  # adv_epoch = 2 -> reset
        assert trainer.cache_size == 0

    def test_zero_interval_never_resets(self, digits_small):
        trainer = make_trainer(reset_interval=0, warmup_epochs=0)
        trainer.adversarial_batch(make_batch(digits_small))
        for epoch in range(1, 50):
            trainer.on_epoch_start(epoch)
        assert trainer.cache_size > 0


class TestTraining:
    def test_fit_populates_cache_for_whole_dataset(self, digits_small):
        train, _ = digits_small
        trainer = make_trainer(warmup_epochs=0)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=2)
        assert trainer.cache_size == len(train)

    def test_warmup_defers_cache(self, digits_small):
        train, _ = digits_small
        trainer = make_trainer(warmup_epochs=2)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=2)
        assert trainer.cache_size == 0

    def test_cost_comparable_to_single_step(self, digits_small):
        """Per-batch cost must be Single-Adv-like, NOT scale with any
        iteration count — the paper's efficiency claim, counted in backward
        passes: 2 per batch against BIM(10)-Adv's 11."""
        from repro.defenses import IterAdvTrainer

        train, _ = digits_small
        loader = DataLoader(train, batch_size=64, rng=0)
        proposed = passes_per_batch(make_trainer(warmup_epochs=0), loader)
        model = mnist_mlp(seed=0)
        bim = passes_per_batch(
            IterAdvTrainer(
                model, Adam(model.parameters()), epsilon=0.2, num_steps=10
            ),
            loader,
        )
        assert proposed["backward"] == 2
        assert bim["backward"] == 11

    def test_end_to_end_robustness_improves(self, digits_small,
                                            undefended_bim_accuracy):
        from repro.attacks import BIM

        train, test = digits_small
        trainer = make_trainer(epsilon=0.2, warmup_epochs=2)
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=14)
        x, y = test.arrays()
        model = trainer.model
        adv = BIM(model, 0.2, num_steps=5).generate(x, y)
        adv_acc = (model.predict(adv) == y).mean()
        # Beats the undefended model (~0) by a fixed margin.
        assert adv_acc >= undefended_bim_accuracy(14) + 0.10
