"""Numerical gradient checking for autograd functions.

Used heavily by the test-suite to validate every differentiable operation
against central finite differences.

Precision: central differences with ``eps ~ 1e-6`` are numerically
meaningless below float64, so checking is **pinned** to the active
policy's ``grad_check_dtype`` (float64 by default) regardless of the
compute dtype in effect — a float32 session still grad-checks in float64.
The pin is implemented by entering a nested :func:`repro.runtime.precision`
region and casting every input up front, so all intermediate tensors,
scalar promotions and gradient accumulations inside the check run at the
checking precision.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..runtime import Policy, active_policy, precision
from .engine import Tensor

__all__ = ["numerical_gradient", "check_gradients"]


def _check_policy() -> Policy:
    """The pinned-precision policy used for the duration of a check."""
    dtype = active_policy().grad_check_dtype
    return Policy(compute_dtype=dtype, accum_dtype=dtype, grad_check_dtype=dtype)


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. one input.

    Parameters
    ----------
    fn:
        Function mapping tensors to a tensor.
    inputs:
        All tensor inputs of ``fn``.
    index:
        Which input to differentiate with respect to.
    eps:
        Finite-difference step.
    """
    policy = _check_policy()
    with precision(policy):
        # Index element-wise rather than through a flat reshape, which
        # would silently perturb a copy of a non-contiguous input (e.g. the
        # NHWC-memory view a conv returns).
        data = inputs[index].data
        grad = np.zeros(data.shape, dtype=policy.compute_dtype)
        for i in np.ndindex(data.shape):
            original = data[i]
            data[i] = original + eps
            plus = float(fn(*inputs).data.sum())
            data[i] = original - eps
            minus = float(fn(*inputs).data.sum())
            data[i] = original
            grad[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-4,
    rtol: float = 1e-3,
    eps: float = 1e-6,
) -> None:
    """Assert that autograd gradients of ``fn`` match finite differences.

    Raises ``AssertionError`` with a diagnostic message on mismatch.
    """
    policy = _check_policy()
    with precision(policy):
        inputs = [
            t if isinstance(t, Tensor) else Tensor(np.asarray(t))
            for t in inputs
        ]
        # Cast up-front so perturbing single elements (numerical_gradient
        # writes into the input in place) happens at checking precision.
        inputs = [
            t if t.dtype == policy.compute_dtype
            else Tensor(t.data.astype(policy.compute_dtype))
            for t in inputs
        ]
        for t in inputs:
            t.requires_grad = True
            t.zero_grad()
        out = fn(*inputs)
        out.sum().backward()
        for i, t in enumerate(inputs):
            expected = numerical_gradient(fn, inputs, i, eps=eps)
            actual = t.grad if t.grad is not None else np.zeros_like(t.data)
            if not np.allclose(actual, expected, atol=atol, rtol=rtol):
                worst = np.max(np.abs(actual - expected))
                raise AssertionError(
                    f"gradient mismatch for input {i}: "
                    f"max abs error {worst:.3e}\n"
                    f"analytic:\n{actual}\nnumeric:\n{expected}"
                )
