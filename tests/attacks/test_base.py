"""Tests for the attack base class and projection helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.attacks import (
    FGSM,
    Attack,
    BackpropGradient,
    clip_to_box,
    project_linf,
)


class TestProjectLinf:
    def test_inside_ball_unchanged(self):
        x = np.array([0.5, 0.5])
        adv = np.array([0.55, 0.45])
        assert np.allclose(project_linf(adv, x, 0.1), adv)

    def test_outside_ball_clamped(self):
        x = np.zeros(3)
        adv = np.array([0.5, -0.5, 0.05])
        out = project_linf(adv, x, 0.1)
        assert np.allclose(out, [0.1, -0.1, 0.05])

    @given(
        delta=arrays(
            np.float64, (8,), elements=st.floats(-1.0, 1.0)
        ),
        eps=st.floats(0.01, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_result_always_within_ball(self, delta, eps):
        x = np.full(8, 0.5)
        out = project_linf(x + delta, x, eps)
        assert np.abs(out - x).max() <= eps + 1e-12


class TestClipToBox:
    def test_clips(self):
        out = clip_to_box(np.array([-0.5, 0.5, 1.5]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_custom_box(self):
        out = clip_to_box(np.array([-2.0, 2.0]), low=-1.0, high=1.0)
        assert np.allclose(out, [-1.0, 1.0])


class TestAttackBase:
    def test_generate_not_implemented(self, trained_mlp, tiny_batch):
        attack = Attack(trained_mlp)
        with pytest.raises(NotImplementedError):
            attack.generate(*tiny_batch)

    def test_invalid_clip_range(self, trained_mlp):
        with pytest.raises(ValueError, match="clip_min"):
            Attack(trained_mlp, clip_min=1.0, clip_max=0.0)

    def test_input_gradient_shape(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        grad = BackpropGradient(trained_mlp)(x, y)
        assert grad.shape == x.shape
        assert np.isfinite(grad).all()

    def test_input_gradient_nonzero(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        grad = BackpropGradient(trained_mlp)(x, y)
        assert np.abs(grad).max() > 0.0

    def test_label_length_mismatch(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        attack = FGSM(trained_mlp, 0.1)
        with pytest.raises(ValueError, match="disagree"):
            attack.generate(x, y[:-1])

    def test_non_nchw_rejected(self, trained_mlp):
        attack = FGSM(trained_mlp, 0.1)
        with pytest.raises(ValueError, match="NCHW"):
            attack.generate(np.zeros((4, 784)), np.zeros(4, dtype=int))

    def test_callable_alias(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        attack = FGSM(trained_mlp, 0.1)
        # __call__ must behave exactly like generate (same determinism).
        assert np.array_equal(attack(x, y), attack.generate(x, y))

    def test_name(self, trained_mlp):
        assert FGSM(trained_mlp, 0.1).name == "FGSM"
