"""End-to-end correctness of attack input gradients.

The attacks are only as correct as ``BackpropGradient``; this checks
it against central finite differences through a real (small) model — the
full path: conv/dense forward, cross-entropy, backward to the pixels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import BIM, BackpropGradient
from repro.autograd import Tensor
from repro.models import small_cnn
from repro.nn import cross_entropy


@pytest.fixture(scope="module")
def model():
    return small_cnn(image_size=8, seed=0)


def loss_value(model, x, y):
    from repro.autograd import no_grad

    with no_grad():
        return cross_entropy(model(Tensor(x)), y).item()


class TestInputGradient:
    def test_matches_finite_differences(self, model):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 0.8, size=(2, 1, 8, 8))
        y = np.array([1, 4])
        grad = BackpropGradient(model)(x, y)
        eps = 1e-5
        # Probe a handful of random coordinates.
        flat = x.reshape(-1)
        grad_flat = grad.reshape(-1)
        for index in rng.choice(flat.size, size=12, replace=False):
            original = flat[index]
            flat[index] = original + eps
            plus = loss_value(model, x, y)
            flat[index] = original - eps
            minus = loss_value(model, x, y)
            flat[index] = original
            numeric = (plus - minus) / (2 * eps)
            assert grad_flat[index] == pytest.approx(numeric, abs=1e-4)

    def test_gradient_batch_independence(self, model):
        """Each example's gradient must not depend on its batch-mates."""
        rng = np.random.default_rng(1)
        x = rng.uniform(0.2, 0.8, size=(3, 1, 8, 8))
        y = np.array([0, 1, 2])
        input_gradient = BackpropGradient(model)
        # cross_entropy mean-reduces, so scale by batch size for comparison.
        full = input_gradient(x, y) * 3
        solo = input_gradient(x[1:2], y[1:2]) * 1
        assert np.allclose(full[1], solo[0], atol=1e-10)


class TestBimProjectionProperties:
    @given(
        step_frac=st.floats(0.05, 2.0),
        steps=st.integers(1, 6),
        eps=st.floats(0.05, 0.4),
    )
    @settings(max_examples=15, deadline=None)
    def test_budget_and_box_always_hold(self, model, step_frac, steps, eps):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
        y = np.array([0, 1])
        attack = BIM(
            model, eps, num_steps=steps, step_size=eps * step_frac
        )
        x_adv = attack.generate(x, y)
        assert np.abs(x_adv - x).max() <= eps + 1e-12
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0
