"""Elementwise arithmetic operations with broadcasting-aware gradients.

Importing this module attaches the Python operator overloads ``+``, ``-``,
``*`` and unary ``-`` and the ``abs`` method onto
:class:`~repro.autograd.Tensor`.
"""

from __future__ import annotations

import numpy as np

from .engine import Function, Tensor, as_tensor

__all__ = ["add", "sub", "mul", "neg", "abs_"]


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting in the forward pass implicitly replicates values; the
    corresponding adjoint operation is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Add(Function):
    """Elementwise addition with broadcasting."""
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a.shape, b.shape)
        return a + b

    @staticmethod
    def backward(ctx, grad_output):
        a_shape, b_shape = ctx.saved
        return (
            unbroadcast(grad_output, a_shape) if ctx.needs(0) else None,
            unbroadcast(grad_output, b_shape) if ctx.needs(1) else None,
        )


class Sub(Function):
    """Elementwise subtraction with broadcasting."""
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a.shape, b.shape)
        return a - b

    @staticmethod
    def backward(ctx, grad_output):
        a_shape, b_shape = ctx.saved
        return (
            unbroadcast(grad_output, a_shape) if ctx.needs(0) else None,
            unbroadcast(-grad_output, b_shape) if ctx.needs(1) else None,
        )


class Mul(Function):
    """Elementwise multiplication with broadcasting."""
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a, b)
        return a * b

    @staticmethod
    def backward(ctx, grad_output):
        a, b = ctx.saved
        return (
            unbroadcast(grad_output * b, a.shape) if ctx.needs(0) else None,
            unbroadcast(grad_output * a, b.shape) if ctx.needs(1) else None,
        )


class Neg(Function):
    """Elementwise negation."""
    @staticmethod
    def forward(ctx, a):
        return -a

    @staticmethod
    def backward(ctx, grad_output):
        return (-grad_output,)


class Abs(Function):
    """Elementwise absolute value (sign subgradient at 0)."""
    @staticmethod
    def forward(ctx, a):
        ctx.save_for_backward(np.sign(a))
        return np.abs(a)

    @staticmethod
    def backward(ctx, grad_output):
        (sgn,) = ctx.saved
        return (grad_output * sgn,)


# ----------------------------------------------------------------------
# public functional API
# ----------------------------------------------------------------------
def add(a, b):
    """Elementwise ``a + b`` with broadcasting."""
    return Add.apply(as_tensor(a), as_tensor(b))


def sub(a, b):
    """Elementwise ``a - b`` with broadcasting."""
    return Sub.apply(as_tensor(a), as_tensor(b))


def mul(a, b):
    """Elementwise ``a * b`` with broadcasting."""
    return Mul.apply(as_tensor(a), as_tensor(b))


def neg(a):
    """Elementwise ``-a``."""
    return Neg.apply(as_tensor(a))


def abs_(a):
    """Elementwise absolute value of ``a``."""
    return Abs.apply(as_tensor(a))


# ----------------------------------------------------------------------
# operator overloads on Tensor
# ----------------------------------------------------------------------
Tensor.__add__ = add
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = mul
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__neg__ = neg

Tensor.abs = abs_
