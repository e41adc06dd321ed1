"""Reduction operations (sum, mean, logsumexp).

Importing this module attaches the reduction methods onto
:class:`~repro.autograd.Tensor`.
"""

from __future__ import annotations

import numpy as np

from .engine import Function, Tensor, as_tensor

__all__ = ["sum_", "mean", "logsumexp"]


def _normalize_axis(axis, ndim):
    """Return ``axis`` as a tuple of non-negative ints, or None."""
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(grad, input_shape, axis, keepdims):
    """Reshape a reduced gradient so it broadcasts back over ``input_shape``."""
    if axis is None or keepdims:
        return grad
    shape = list(input_shape)
    for a in axis:
        shape[a] = 1
    return grad.reshape(shape)


class Sum(Function):
    """Sum reduction over optional axes."""
    @staticmethod
    def forward(ctx, a, axis=None, keepdims=False):
        axis = _normalize_axis(axis, a.ndim)
        ctx.save_for_backward(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx, grad_output):
        input_shape, axis, keepdims = ctx.saved
        grad = _expand_reduced(grad_output, input_shape, axis, keepdims)
        return (np.broadcast_to(grad, input_shape).copy(),)


class Mean(Function):
    """Mean reduction over optional axes."""
    @staticmethod
    def forward(ctx, a, axis=None, keepdims=False):
        axis = _normalize_axis(axis, a.ndim)
        if axis is None:
            count = a.size
        else:
            count = int(np.prod([a.shape[i] for i in axis]))
        ctx.save_for_backward(a.shape, axis, keepdims, count)
        return a.mean(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx, grad_output):
        input_shape, axis, keepdims, count = ctx.saved
        grad = _expand_reduced(grad_output, input_shape, axis, keepdims)
        return (np.broadcast_to(grad, input_shape).copy() / count,)


class LogSumExp(Function):
    """Numerically stable ``log(sum(exp(a)))`` along an axis."""

    @staticmethod
    def forward(ctx, a, axis=-1, keepdims=False):
        axis = _normalize_axis(axis, a.ndim)
        shifted = a - a.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        total = exp.sum(axis=axis, keepdims=True)
        softmax = exp / total
        out = np.log(total) + a.max(axis=axis, keepdims=True)
        ctx.save_for_backward(a.shape, axis, keepdims, softmax)
        if not keepdims:
            out = out.reshape(
                tuple(s for i, s in enumerate(a.shape) if i not in axis)
            )
        return out

    @staticmethod
    def backward(ctx, grad_output):
        input_shape, axis, keepdims, softmax = ctx.saved
        grad = _expand_reduced(grad_output, input_shape, axis, keepdims)
        return (softmax * grad,)


def sum_(a, axis=None, keepdims=False):
    """Sum of ``a`` over ``axis`` (None = all)."""
    return Sum.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims=False):
    """Mean of ``a`` over ``axis`` (None = all)."""
    return Mean.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def logsumexp(a, axis=-1, keepdims=False):
    """Numerically stable ``log(sum(exp(a)))`` over ``axis``."""
    return LogSumExp.apply(as_tensor(a), axis=axis, keepdims=keepdims)


Tensor.sum = sum_
Tensor.mean = mean
Tensor.logsumexp = logsumexp
