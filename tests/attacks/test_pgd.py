"""Tests for PGD."""

import numpy as np
import pytest

from repro.attacks import BIM, PGD

from tests.helpers import box_tol


class TestInvariants:
    def test_linf_bound(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        x_adv = PGD(trained_mlp, 0.1, num_steps=5, rng=0).generate(x, y)
        assert np.abs(x_adv - x).max() <= 0.1 + box_tol(x)

    def test_unit_box(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        x_adv = PGD(trained_mlp, 0.4, num_steps=5, rng=0).generate(x, y)
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_random_start_differs_across_rngs(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        a = PGD(trained_mlp, 0.2, num_steps=2, rng=0).generate(x, y)
        b = PGD(trained_mlp, 0.2, num_steps=2, rng=1).generate(x, y)
        assert not np.array_equal(a, b)

    def test_seeded_reproducibility(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        a = PGD(trained_mlp, 0.2, num_steps=2, rng=7).generate(x, y)
        b = PGD(trained_mlp, 0.2, num_steps=2, rng=7).generate(x, y)
        assert np.array_equal(a, b)

    def test_at_least_as_strong_as_bim(self, trained_mlp, digits_small):
        _train, test = digits_small
        x, y = test.arrays()
        eps = 0.15
        bim_acc = (
            trained_mlp.predict(
                BIM(trained_mlp, eps, num_steps=10).generate(x, y)
            ) == y
        ).mean()
        pgd_acc = (
            trained_mlp.predict(
                PGD(trained_mlp, eps, num_steps=10, rng=0).generate(x, y)
            ) == y
        ).mean()
        assert pgd_acc <= bim_acc + 0.05
