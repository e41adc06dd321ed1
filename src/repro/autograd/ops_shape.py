"""Shape-manipulation operations (reshape, transpose, indexing, flatten).

Importing this module attaches the shape methods onto
:class:`~repro.autograd.Tensor`.
"""

from __future__ import annotations

import numpy as np

from .engine import Function, Tensor, as_tensor

__all__ = [
    "reshape",
    "transpose",
    "getitem",
    "flatten",
]


class Reshape(Function):
    """View with a new shape."""
    @staticmethod
    def forward(ctx, a, shape):
        ctx.save_for_backward(a.shape)
        return a.reshape(shape)

    @staticmethod
    def backward(ctx, grad_output):
        (input_shape,) = ctx.saved
        return (grad_output.reshape(input_shape), None)


class Transpose(Function):
    """Axis permutation."""
    @staticmethod
    def forward(ctx, a, axes=None):
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        ctx.save_for_backward(tuple(np.argsort(axes)))
        return a.transpose(axes)

    @staticmethod
    def backward(ctx, grad_output):
        (inverse,) = ctx.saved
        return (grad_output.transpose(inverse), None)


class GetItem(Function):
    """Indexing/slicing; scatter-adds gradients on repeats."""
    @staticmethod
    def forward(ctx, a, index):
        ctx.save_for_backward(a.shape, a.dtype, index)
        return a[index]

    @staticmethod
    def backward(ctx, grad_output):
        input_shape, dtype, index = ctx.saved
        grad = np.zeros(input_shape, dtype=dtype)
        # add.at handles repeated indices (fancy indexing) correctly.
        np.add.at(grad, index, grad_output)
        return (grad, None)


def reshape(a, *shape):
    """Reshape ``a`` (accepts a tuple or varargs)."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Reshape.apply(as_tensor(a), shape)


def transpose(a, axes=None):
    """Permute the axes of ``a`` (default: reverse)."""
    return Transpose.apply(as_tensor(a), axes)


def getitem(a, index):
    """Differentiable ``a[index]``."""
    if isinstance(index, Tensor):
        index = index.data
    if isinstance(index, tuple):
        index = tuple(
            i.data if isinstance(i, Tensor) else i for i in index
        )
    return GetItem.apply(as_tensor(a), index)


def flatten(a, start_axis: int = 1):
    """Collapse all dimensions from ``start_axis`` onwards."""
    a = as_tensor(a)
    lead = a.shape[:start_axis]
    return reshape(a, lead + (-1,))


Tensor.reshape = reshape
Tensor.transpose = transpose
Tensor.__getitem__ = getitem
Tensor.flatten = flatten
