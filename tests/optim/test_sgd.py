"""Tests for SGD and the optimizer base class."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Parameter
from repro.optim import SGD


def quad_param(value=5.0):
    return Parameter(np.array([value]))


def quad_step(param, optimizer):
    """One gradient step on f(p) = p^2 (gradient 2p)."""
    optimizer.zero_grad()
    (param * param).sum().backward()
    optimizer.step()


class TestValidation:
    def test_negative_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            SGD([quad_param()], lr=-1.0)

    def test_empty_params(self):
        with pytest.raises(ValueError, match="empty"):
            SGD([], lr=0.1)



class TestUpdates:
    def test_plain_update_math(self):
        p = quad_param(5.0)
        opt = SGD([p], lr=0.1)
        quad_step(p, opt)  # p <- 5 - 0.1 * 10 = 4
        assert np.isclose(p.data[0], 4.0)

    def test_skips_params_without_grad(self):
        p, q = quad_param(1.0), quad_param(1.0)
        opt = SGD([p, q], lr=0.1)
        opt.zero_grad()
        (p * p).sum().backward()  # q gets no grad
        opt.step()
        assert np.isclose(q.data[0], 1.0)

    def test_converges_on_quadratic(self):
        p = quad_param(5.0)
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quad_step(p, opt)
        assert abs(p.data[0]) < 1e-3

    def test_zero_grad_clears(self):
        p = quad_param()
        opt = SGD([p], lr=0.1)
        (p * p).sum().backward()
        opt.zero_grad()
        assert p.grad is None
