"""Tests for Adam."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import Adam


def quad_param(value=5.0):
    return Parameter(np.array([float(value)]))


def quad_step(param, optimizer):
    optimizer.zero_grad()
    (param * param).sum().backward()
    optimizer.step()


class TestValidation:
    def test_bad_betas(self):
        with pytest.raises(ValueError, match="betas"):
            Adam([quad_param()], betas=(1.0, 0.999))

    def test_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            Adam([quad_param()], eps=0.0)


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, the very first Adam step has magnitude ~lr.
        p = quad_param(1.0)
        Adam([p], lr=0.1).__class__  # noqa: B018 - clarity
        opt = Adam([p], lr=0.1)
        quad_step(p, opt)
        assert np.isclose(abs(1.0 - p.data[0]), 0.1, atol=1e-6)

    def test_converges_on_quadratic(self):
        p = quad_param(5.0)
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            quad_step(p, opt)
        assert abs(p.data[0]) < 1e-2

    def test_state_independent_across_params(self):
        p, q = quad_param(1.0), quad_param(100.0)
        opt = Adam([p, q], lr=0.1)
        quad_step(p, opt)  # q has no grad this step
        assert q.data[0] == 100.0
