"""Cross-module integration tests.

These pin end-to-end properties that no single-module test can: full-run
determinism, checkpoint/resume equivalence, and consistency between the
attack library and the evaluation protocols.
"""

import numpy as np
import pytest

from repro.attacks import BIM, FGSM
from repro.data import DataLoader, load_dataset
from repro.defenses import Trainer, build_trainer
from repro.eval import RobustnessEvaluator, robust_accuracy
from repro.models import mnist_mlp
from repro.optim import Adam
from repro.utils import load_state_dict, save_state_dict


class TestDeterminism:
    def _train_once(self, defense="fgsm_adv", epochs=4):
        train, _ = load_dataset(
            "digits", train_per_class=15, test_per_class=5, seed=0
        )
        model = mnist_mlp(seed=0)
        trainer = build_trainer(
            defense, model, epsilon=0.2, lr=2e-3, warmup_epochs=1
        )
        trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=epochs)
        return model

    def test_identical_runs_identical_weights(self):
        """Same seeds everywhere -> bit-identical parameters."""
        m1 = self._train_once()
        m2 = self._train_once()
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_proposed_method_deterministic(self):
        m1 = self._train_once(defense="proposed")
        m2 = self._train_once(defense="proposed")
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_different_seed_differs(self):
        train, _ = load_dataset(
            "digits", train_per_class=15, test_per_class=5, seed=0
        )
        weights = []
        for seed in (0, 1):
            model = mnist_mlp(seed=seed)
            Trainer(model, Adam(model.parameters(), lr=2e-3)).fit(
                DataLoader(train, batch_size=64, rng=seed), epochs=2
            )
            weights.append(model.head.weight.data.copy())
        assert not np.array_equal(weights[0], weights[1])


class TestCheckpointResume:
    def test_save_load_then_attack_identically(self, tmp_path, digits_small):
        """A reloaded model must be attack-equivalent, not just
        prediction-equivalent (gradients must match too)."""
        train, test = digits_small
        x, y = test.arrays()
        model = mnist_mlp(seed=0)
        Trainer(model, Adam(model.parameters(), lr=2e-3)).fit(
            DataLoader(train, batch_size=64, rng=0), epochs=4
        )
        path = str(tmp_path / "model.npz")
        save_state_dict(path, model.state_dict())

        clone = mnist_mlp(seed=123)  # different init, then overwritten
        clone.load_state_dict(load_state_dict(path))

        adv_a = BIM(model, 0.2, num_steps=3).generate(x[:16], y[:16])
        adv_b = BIM(clone, 0.2, num_steps=3).generate(x[:16], y[:16])
        assert np.array_equal(adv_a, adv_b)

    def test_resume_training_continues(self, tmp_path, digits_small):
        train, _ = digits_small
        loader = DataLoader(train, batch_size=64, rng=0)
        model = mnist_mlp(seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=2e-3))
        h1 = trainer.fit(loader, epochs=3)
        h2 = trainer.fit(loader, epochs=3)  # resume on same trainer
        assert trainer.epoch == 6
        assert np.mean(h2.losses) < np.mean(h1.losses)


class TestAttackEvalConsistency:
    def test_robust_accuracy_matches_manual_loop(
        self, trained_mlp, digits_small
    ):
        _train, test = digits_small
        x, y = test.arrays()
        attack = FGSM(trained_mlp, 0.2)
        via_eval = robust_accuracy(trained_mlp, attack, x, y)
        manual = (trained_mlp.predict(attack.generate(x, y)) == y).mean()
        assert via_eval == pytest.approx(manual)

    def test_paper_suite_consistent_with_components(
        self, trained_mlp, digits_small
    ):
        _train, test = digits_small
        x, y = test.arrays()
        suite = RobustnessEvaluator.paper_suite(0.2)
        results = suite.evaluate(trained_mlp, x, y)
        direct = robust_accuracy(
            trained_mlp, BIM(trained_mlp, 0.2, num_steps=10), x, y
        )
        assert results["bim10"] == pytest.approx(direct)


class TestCrossModelTransfers:
    def test_adversarial_examples_transfer_between_seeds(self, digits_small):
        """Classic phenomenon: examples crafted on one model hurt another
        model trained on the same data — the premise behind black-box
        attacks and the reason the paper's white-box evaluation is the
        harder setting."""
        train, test = digits_small
        x, y = test.arrays()
        loader = DataLoader(train, batch_size=64, rng=0)
        models = []
        for seed in (0, 7):
            model = mnist_mlp(seed=seed)
            Trainer(model, Adam(model.parameters(), lr=2e-3)).fit(
                loader, epochs=8
            )
            models.append(model)
        source, victim = models
        x_adv = BIM(source, 0.25, num_steps=10).generate(x, y)
        clean_acc = (victim.predict(x) == y).mean()
        transfer_acc = (victim.predict(x_adv) == y).mean()
        assert transfer_acc < clean_acc - 0.2
