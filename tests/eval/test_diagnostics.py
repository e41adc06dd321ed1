"""Tests for gradient-masking diagnostics."""

import numpy as np
import pytest

from repro.eval import MaskingReport, gradient_masking_report


class TestOnHonestModel:
    def test_undefended_model_not_flagged(self, trained_mlp, digits_small):
        """A vanilla-trained model has honest gradients: iterative attacks
        beat FGSM, which beats noise — no flags."""
        _train, test = digits_small
        x, y = test.arrays()
        report = gradient_masking_report(
            trained_mlp, x, y, epsilon=0.2, num_steps=5
        )
        assert not report.suspicious
        assert report.bim <= report.fgsm + 0.05
        assert report.noise >= report.fgsm

    def test_render_mentions_values(self, trained_mlp, digits_small):
        _train, test = digits_small
        x, y = test.arrays()
        report = gradient_masking_report(
            trained_mlp, x, y, epsilon=0.2, num_steps=3
        )
        text = report.render()
        assert "clean=" in text and "bim=" in text
        assert "no gradient-masking indicators" in text


class TestFlagLogic:
    def test_iterative_weaker_flagged(self):
        report = MaskingReport(
            epsilon=0.2, clean=0.95, fgsm=0.2, bim=0.6, noise=0.9,
            epsilon_sweep=[0.5, 0.3, 0.1],
        )
        # Re-run the flagging logic by constructing through the function's
        # rules: simulate via direct comparison used in the module.
        assert report.flags == []  # raw dataclass has no flags

    def test_masking_model_flagged(self, digits_small):
        """A model whose gradients are misleading (random fixed direction)
        must trip the noise-vs-gradient flag: gradient attacks do no better
        than random noise even though the model is clean-accurate."""
        _train, test = digits_small
        x, y = test.arrays()
        x, y = x[:40], y[:40]

        from repro.autograd import Tensor

        rng = np.random.default_rng(0)
        random_direction = Tensor(
            rng.normal(size=(x[0].size, 10)) * 0.01
        )

        class MisleadingGradModel:
            """Clean-accurate oracle whose logit surface carries a random,
            useless gradient: any perturbation beyond 0.05 breaks it, and
            following the gradient is no better than noise."""

            num_classes = 10

            def __call__(self, tensor):
                flat = tensor.reshape((tensor.shape[0], -1))
                return flat @ random_direction

            def predict(self, batch):
                batch = np.asarray(batch)
                predictions = []
                for img in batch:
                    deviations = (
                        np.abs(x - img).reshape(len(x), -1).max(axis=1)
                    )
                    nearest = int(deviations.argmin())
                    if deviations[nearest] < 0.05:
                        predictions.append(y[nearest])
                    else:
                        predictions.append((y[nearest] + 1) % 10)
                return np.asarray(predictions)

        report = gradient_masking_report(
            MisleadingGradModel(), x, y, epsilon=0.2, num_steps=2, rng=0
        )
        assert report.suspicious
        assert any("noise" in flag for flag in report.flags)
