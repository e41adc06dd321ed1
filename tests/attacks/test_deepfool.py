"""Tests for DeepFool."""

import numpy as np
import pytest

from repro.attacks import DeepFool
from repro.autograd import Tensor, no_grad
from repro.models.classifier import FeatureClassifier
from repro.nn import Dense, Flatten, Sequential
from repro.runtime import precision


def tied_linear_model():
    """3-class linear model ``logits = [x0, x1, -(x0 + x1 + x2 + x3)]``
    over 2x2 images: at a uniform image classes 0 and 1 tie exactly."""
    head = Dense(4, 3)
    head.weight.data[...] = [[1, 0, -1], [0, 1, -1], [0, 0, -1], [0, 0, -1]]
    head.bias.data[...] = 0
    return FeatureClassifier(Sequential(Flatten()), head, num_classes=3)


class TestDeepFool:
    def test_fools_most_examples(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        attack = DeepFool(trained_mlp, max_steps=30)
        x_adv = attack.generate(x, y)
        fooled = (trained_mlp.predict(x_adv) != y).mean()
        assert fooled > 0.7

    def test_perturbations_are_small(self, trained_mlp, tiny_batch):
        """DeepFool finds near-minimal perturbations — far below the image
        diameter."""
        x, y = tiny_batch
        attack = DeepFool(trained_mlp, max_steps=30)
        norms = attack.perturbation_norms(x, y)
        image_norm = np.linalg.norm(x.reshape(len(x), -1), axis=1).mean()
        assert norms.mean() < image_norm  # much smaller than the images

    def test_stays_in_box(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        x_adv = DeepFool(trained_mlp, max_steps=10).generate(x, y)
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_already_wrong_examples_untouched(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        wrong_labels = (trained_mlp.predict(x) + 1) % 10
        x_adv = DeepFool(trained_mlp, max_steps=5).generate(x, wrong_labels)
        # Every example is already "fooled" w.r.t. these labels.
        assert np.allclose(x_adv, x)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_steps_off_an_exact_tie(self, dtype):
        """An example exactly on a boundary (margin 0, argmax on the true
        class) has a zero linearised distance; it must still be pushed
        across rather than stalling for every step."""
        with precision(dtype):
            model = tied_linear_model()
            x = np.full((1, 1, 2, 2), 0.5, dtype=dtype)
            y = np.array([0])
            with no_grad():
                logits = model(Tensor(x)).data
            assert logits[0, 0] == logits[0, 1]
            assert model.predict(x)[0] == 0
            x_adv = DeepFool(model, max_steps=3).generate(x, y)
            assert x_adv.dtype == np.dtype(dtype)
            assert model.predict(x_adv)[0] != 0
            assert np.linalg.norm(x_adv - x) < 1e-2

    def test_validation(self, trained_mlp):
        with pytest.raises(ValueError):
            DeepFool(trained_mlp, max_steps=0)
        with pytest.raises(ValueError):
            DeepFool(trained_mlp, overshoot=-0.1)

    def test_smaller_than_budgeted_attacks(self, trained_mlp, tiny_batch):
        """DeepFool's perturbation should be (on average) smaller than a
        successful full-budget BIM perturbation in l2."""
        from repro.attacks import BIM

        x, y = tiny_batch
        deepfool_norms = DeepFool(
            trained_mlp, max_steps=30
        ).perturbation_norms(x, y)
        bim_adv = BIM(trained_mlp, 0.25, num_steps=10).generate(x, y)
        bim_norms = np.linalg.norm(
            (bim_adv - x).reshape(len(x), -1), axis=1
        )
        assert deepfool_norms.mean() < bim_norms.mean()
