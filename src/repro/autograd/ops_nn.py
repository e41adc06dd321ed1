"""Neural-network operations: matmul, activations, softmax, conv, pooling.

Importing this module attaches ``matmul``/``@`` and activation methods onto
:class:`~repro.autograd.Tensor`.
"""

from __future__ import annotations

import numpy as np

from ..runtime import get_workspace
from ._im2col import col2im, conv_output_size, im2col
from .engine import Function, Tensor, as_tensor, is_grad_enabled
from .ops_reduce import logsumexp

_UNBROADCAST = None


def _unbroadcast():
    """Lazy module-level handle on ops_basic.unbroadcast (circular import)."""
    global _UNBROADCAST
    if _UNBROADCAST is None:
        from .ops_basic import unbroadcast

        _UNBROADCAST = unbroadcast
    return _UNBROADCAST


__all__ = [
    "matmul",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "dropout_mask",
]


class MatMul(Function):
    """Matrix multiplication (supports batched operands)."""
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a, b)
        return a @ b

    @staticmethod
    def backward(ctx, grad_output):
        a, b = ctx.saved
        # Batched matmul may broadcast leading dims; sum them back.
        unbroadcast = _unbroadcast()
        grad_a = grad_b = None
        # A length-1 contraction axis makes the GEMM an outer product: a
        # broadcast multiply computes the identical single products (no
        # accumulation, so bitwise equal) without BLAS packing overhead —
        # the batch-size-1 dense backward hits this on every step.
        if ctx.needs(0):
            bt = np.swapaxes(b, -1, -2)
            if b.shape[-1] == 1:
                grad_a = unbroadcast(grad_output * bt, a.shape)
            else:
                grad_a = unbroadcast(grad_output @ bt, a.shape)
        if ctx.needs(1):
            at = np.swapaxes(a, -1, -2)
            if a.shape[-2] == 1:
                grad_b = unbroadcast(at * grad_output, b.shape)
            else:
                grad_b = unbroadcast(at @ grad_output, b.shape)
        return grad_a, grad_b


class ReLU(Function):
    """Rectified linear unit."""
    @staticmethod
    def forward(ctx, a):
        mask = a > 0
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx, grad_output):
        (mask,) = ctx.saved
        return (grad_output * mask,)


class LeakyReLU(Function):
    """Leaky ReLU with configurable negative slope."""
    @staticmethod
    def forward(ctx, a, negative_slope=0.01):
        mask = a > 0
        ctx.save_for_backward(mask, negative_slope)
        return np.where(mask, a, negative_slope * a)

    @staticmethod
    def backward(ctx, grad_output):
        mask, slope = ctx.saved
        return (np.where(mask, grad_output, slope * grad_output),)


class Sigmoid(Function):
    """Logistic sigmoid."""
    @staticmethod
    def forward(ctx, a):
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad_output):
        (out,) = ctx.saved
        return (grad_output * out * (1.0 - out),)


class Tanh(Function):
    """Hyperbolic tangent."""
    @staticmethod
    def forward(ctx, a):
        out = np.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad_output):
        (out,) = ctx.saved
        return (grad_output * (1.0 - out * out),)


class Softmax(Function):
    """Softmax along an axis (stable shift-by-max form)."""
    @staticmethod
    def forward(ctx, a, axis=-1):
        shifted = a - a.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=axis, keepdims=True)
        ctx.save_for_backward(out, axis)
        return out

    @staticmethod
    def backward(ctx, grad_output):
        out, axis = ctx.saved
        dot = (grad_output * out).sum(axis=axis, keepdims=True)
        return (out * (grad_output - dot),)


class Conv2d(Function):
    """2-D cross-correlation via im2col + GEMM.

    Takes and returns NCHW-shaped arrays; the output (and the input
    gradient) is a view of NHWC memory (see :mod:`._im2col`).
    """

    @staticmethod
    def forward(ctx, x, weight, bias=None, stride=1, padding=0):
        n, c_in, h, w = x.shape
        c_out, c_in_w, kh, kw = weight.shape
        if c_in != c_in_w:
            raise ValueError(
                f"input has {c_in} channels but weight expects {c_in_w}"
            )
        out_h = conv_output_size(h, kh, stride, padding)
        out_w = conv_output_size(w, kw, stride, padding)
        cols = im2col(x, kh, kw, stride, padding)
        # Weight permuted once to the (kh, kw, C)-ordered column layout.
        w_mat = weight.transpose(0, 2, 3, 1).reshape(c_out, -1)
        out = cols @ w_mat.T
        if bias is not None:
            if np.result_type(out.dtype, bias.dtype) == out.dtype:
                np.add(out, bias, out=out)  # GEMM result is fresh: add in place
            else:
                out = out + bias
        out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
        if is_grad_enabled():
            # The column matrix is reused for grad_weight; the backward
            # pass releases it once the gradients are formed.
            ctx.save_for_backward(
                cols, w_mat, weight.shape, x.shape, stride, padding,
                bias is not None,
            )
        else:
            get_workspace().release(cols)
        return out

    @staticmethod
    def backward(ctx, grad_output):
        cols, w_mat, w_shape, x_shape, stride, padding, has_bias = ctx.saved
        if cols is None:
            raise RuntimeError(
                "Conv2d backward called twice on the same graph node; the "
                "column workspace buffer has already been recycled"
            )
        c_out, c_in, kh, kw = w_shape
        n, _, h, w = x_shape
        workspace = get_workspace()
        # (N, C_out, out_h, out_w) -> (N*out_h*out_w, C_out): a free view
        # of NHWC memory, a copy for any other layout.
        _, _, out_h, out_w = grad_output.shape
        grad_mat = grad_output.transpose(0, 2, 3, 1).reshape(-1, c_out)
        grad_weight = None
        if ctx.needs(1):
            # Back from the (kh, kw, C) column order to a C-contiguous
            # (C_out, C_in, kh, kw) gradient.
            grad_weight = np.ascontiguousarray(
                (grad_mat.T @ cols)
                .reshape(c_out, kh, kw, c_in)
                .transpose(0, 3, 1, 2)
            )
        grad_bias = None
        if has_bias and ctx.needs(2):
            # A GEMV against ones: a column sum of the tall, narrow
            # gradient matrix is several times slower as an axis-0 reduce.
            grad_bias = np.ones(grad_mat.shape[0], grad_mat.dtype) @ grad_mat
        result_dtype = np.result_type(grad_mat.dtype, w_mat.dtype)
        if not ctx.needs(0):
            # The input (e.g. a clean training batch, as opposed to an
            # attack's perturbation variable) takes no gradient: skip the
            # whole input-gradient GEMM + scatter.
            grad_x = None
        elif c_in * kh * kw >= 64:
            # Fused GEMM + scatter: one small GEMM per kernel position,
            # accumulated straight into an NHWC image buffer.  Skips
            # materialising the full (rows, kh*kw*C_in) column gradient;
            # wins once the per-position GEMMs are big enough to amortise
            # the k^2 BLAS dispatches.
            padded = workspace.acquire(
                (n, h + 2 * padding, w + 2 * padding, c_in), result_dtype
            )
            padded.fill(0.0)
            tmp = workspace.acquire((grad_mat.shape[0], c_in), result_dtype)
            tmp_img = tmp.reshape(n, out_h, out_w, c_in)
            i_max = stride * out_h
            j_max = stride * out_w
            for i in range(kh):
                for j in range(kw):
                    start = (i * kw + j) * c_in
                    np.matmul(grad_mat, w_mat[:, start : start + c_in], out=tmp)
                    padded[:, i : i + i_max : stride, j : j + j_max : stride, :] += (
                        tmp_img
                    )
            grad_x = np.empty((n, h, w, c_in), dtype=result_dtype)
            grad_x[...] = padded[:, padding : padding + h, padding : padding + w, :]
            grad_x = grad_x.transpose(0, 3, 1, 2)
            workspace.release(tmp)
            workspace.release(padded)
        else:
            grad_cols = workspace.acquire(
                (grad_mat.shape[0], w_mat.shape[1]), result_dtype
            )
            np.matmul(grad_mat, w_mat, out=grad_cols)
            grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
            workspace.release(grad_cols)
        workspace.release(cols)
        ctx.save_for_backward(
            None, w_mat, w_shape, x_shape, stride, padding, has_bias
        )
        return grad_x, grad_weight, grad_bias


def _pool_tiles(shape, kernel_size, stride, padding):
    """True when non-overlapping windows tile the unpadded image exactly —
    the common ``MaxPool2d(2)`` layout, served by pure reshape views."""
    _, _, h, w = shape
    return (
        stride == kernel_size
        and padding == 0
        and h % kernel_size == 0
        and w % kernel_size == 0
    )


def _nhwc(x):
    """``(N, H, W, C)`` C-contiguous array of an NCHW-shaped image: free for
    the conv stack's own (NHWC-memory) outputs, one copy otherwise."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _windows(a, kernel_size):
    """``(N, out_h, k, out_w, k, C)`` view of the tiled windows of an NHWC
    array (splitting the H and W axes never copies)."""
    n, h, w, c = a.shape
    k = kernel_size
    return a.reshape(n, h // k, k, w // k, k, c)


# Window slot of each cell of a 2x2 tile, broadcast against the
# (N, out_h, 2, out_w, 2, C) window view.
_SLOTS_2X2 = np.arange(4, dtype=np.int8).reshape(1, 1, 2, 1, 2, 1)


class MaxPool2d(Function):
    """Max pooling over square windows (argmax gradient routing).

    Takes and returns NCHW-shaped arrays; the output and the input gradient
    are views of NHWC memory (see :mod:`._im2col`).
    """
    @staticmethod
    def forward(ctx, x, kernel_size=2, stride=None, padding=0):
        stride = stride or kernel_size
        n, c, h, w = x.shape
        out_h = conv_output_size(h, kernel_size, stride, padding)
        out_w = conv_output_size(w, kernel_size, stride, padding)
        tiled_2x2 = kernel_size == 2 and _pool_tiles(x.shape, 2, stride, padding)
        if tiled_2x2:
            # 2x2 tiles: hand-rolled max/argmax over the four slot views of
            # the window view beats np.argmax's generic reduction.  Strict
            # `>` comparisons keep np.argmax's first-max tie-breaking; the
            # argmax is the slot index as int8, selected branch-free
            # (np.where is several times slower on random masks).
            view = _windows(_nhwc(x), 2)
            s0, s1 = view[:, :, 0, :, 0], view[:, :, 0, :, 1]
            s2, s3 = view[:, :, 1, :, 0], view[:, :, 1, :, 1]
            m01 = np.maximum(s0, s1)
            m23 = np.maximum(s2, s3)
            a01 = (s1 > s0).view(np.int8)
            a23 = (s3 > s2).view(np.int8)
            high = m23 > m01
            argmax = a01 + high * (a23 + 2 - a01)
            out = np.maximum(m01, m23, out=m01)
            ctx.save_for_backward(argmax, x.shape, 2, stride, padding, True)
            return out.transpose(0, 3, 1, 2)
        # Padding cells are -inf, not 0: with zero padding the argmax would
        # prefer a padding cell over genuinely negative activations, both
        # corrupting the forward value and routing gradient into the void.
        flat = im2col(
            x, kernel_size, kernel_size, stride, padding, pad_value=-np.inf
        )
        # rows of `cols` are (N*out_h*out_w, K*K, C)
        cols = flat.reshape(-1, kernel_size * kernel_size, c)
        argmax = cols.argmax(axis=1)
        out = cols.max(axis=1)
        ctx.save_for_backward(
            argmax, x.shape, kernel_size, stride, padding, False
        )
        get_workspace().release(flat)
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    @staticmethod
    def backward(ctx, grad_output):
        argmax, x_shape, kernel_size, stride, padding, tiled_2x2 = ctx.saved
        n, c, h, w = x_shape
        grad = grad_output.transpose(0, 2, 3, 1)
        if tiled_2x2:
            # 2x2 tiles: each cell takes its window's gradient where it holds
            # the argmax slot, zero elsewhere — one broadcast pass over the
            # window view of the NHWC input gradient.
            grad_x = np.empty((n, h, w, c), dtype=grad_output.dtype)
            np.multiply(
                grad[:, :, None, :, None, :],
                argmax[:, :, None, :, None, :] == _SLOTS_2X2,
                out=_windows(grad_x, 2),
            )
            return (grad_x.transpose(0, 3, 1, 2),)
        workspace = get_workspace()
        k2 = kernel_size * kernel_size
        grad_cols = workspace.acquire((argmax.shape[0], k2, c), grad.dtype)
        grad_cols.fill(0.0)
        np.put_along_axis(
            grad_cols, argmax[:, None], grad.reshape(-1, 1, c), axis=1
        )
        grad_x = col2im(
            grad_cols.reshape(grad_cols.shape[0], -1),
            x_shape, kernel_size, kernel_size, stride, padding,
        )
        workspace.release(grad_cols)
        return (grad_x,)


class AvgPool2d(Function):
    """Average pooling over square windows.

    Takes and returns NCHW-shaped arrays; the output and the input gradient
    are views of NHWC memory (see :mod:`._im2col`).
    """
    @staticmethod
    def forward(ctx, x, kernel_size=2, stride=None, padding=0):
        stride = stride or kernel_size
        n, c, h, w = x.shape
        out_h = conv_output_size(h, kernel_size, stride, padding)
        out_w = conv_output_size(w, kernel_size, stride, padding)
        tiled = _pool_tiles(x.shape, kernel_size, stride, padding)
        ctx.save_for_backward(x.shape, kernel_size, stride, padding, tiled)
        if tiled:
            # Windows tile the image: reduce straight over the window view,
            # no column gather.
            out = _windows(_nhwc(x), kernel_size).mean(axis=(2, 4))
        else:
            flat = im2col(x, kernel_size, kernel_size, stride, padding)
            out = flat.reshape(-1, kernel_size * kernel_size, c).mean(axis=1)
            get_workspace().release(flat)
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    @staticmethod
    def backward(ctx, grad_output):
        x_shape, kernel_size, stride, padding, tiled = ctx.saved
        n, c, h, w = x_shape
        k2 = kernel_size * kernel_size
        grad = grad_output.transpose(0, 2, 3, 1) / k2
        if tiled:
            # Every input cell in a window gets grad/k^2: one broadcast
            # assignment into the window view of the NHWC image gradient.
            grad_x = np.empty((n, h, w, c), dtype=grad.dtype)
            _windows(grad_x, kernel_size)[...] = (
                grad[:, :, None, :, None, :]
            )
            return (grad_x.transpose(0, 3, 1, 2),)
        workspace = get_workspace()
        grad_cols = workspace.acquire((grad.size // c, k2, c), grad.dtype)
        grad_cols[...] = grad.reshape(-1, 1, c)
        grad_x = col2im(
            grad_cols.reshape(grad_cols.shape[0], -1),
            x_shape, kernel_size, kernel_size, stride, padding,
        )
        workspace.release(grad_cols)
        return (grad_x,)


class DropoutMask(Function):
    """Multiply by a fixed (pre-drawn) mask; used by the Dropout layer."""

    @staticmethod
    def forward(ctx, a, mask):
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx, grad_output):
        (mask,) = ctx.saved
        return (grad_output * mask if ctx.needs(0) else None, None)


# ----------------------------------------------------------------------
# public functional API
# ----------------------------------------------------------------------
def matmul(a, b):
    """Matrix product ``a @ b``."""
    return MatMul.apply(as_tensor(a), as_tensor(b))


def relu(a):
    """Elementwise ``max(a, 0)``."""
    return ReLU.apply(as_tensor(a))


def leaky_relu(a, negative_slope: float = 0.01):
    """Leaky ReLU of ``a``."""
    return LeakyReLU.apply(as_tensor(a), negative_slope=negative_slope)


def sigmoid(a):
    """Elementwise logistic sigmoid of ``a``."""
    return Sigmoid.apply(as_tensor(a))


def tanh(a):
    """Elementwise tanh of ``a``."""
    return Tanh.apply(as_tensor(a))


def softmax(a, axis: int = -1):
    """Softmax of ``a`` along ``axis``."""
    return Softmax.apply(as_tensor(a), axis=axis)


def log_softmax(a, axis: int = -1):
    """Numerically stable ``log(softmax(a))`` built on logsumexp."""
    a = as_tensor(a)
    return a - logsumexp(a, axis=axis, keepdims=True)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0):
    """2-D convolution (cross-correlation) over an NCHW batch."""
    args = [as_tensor(x), as_tensor(weight)]
    if bias is not None:
        args.append(as_tensor(bias))
        return Conv2d.apply(*args, stride=stride, padding=padding)
    return Conv2d.apply(args[0], args[1], None, stride=stride, padding=padding)


def max_pool2d(x, kernel_size: int = 2, stride=None, padding: int = 0):
    """Max pooling over square windows of an NCHW batch."""
    return MaxPool2d.apply(
        as_tensor(x), kernel_size=kernel_size, stride=stride, padding=padding
    )


def avg_pool2d(x, kernel_size: int = 2, stride=None, padding: int = 0):
    """Average pooling over square windows of an NCHW batch."""
    return AvgPool2d.apply(
        as_tensor(x), kernel_size=kernel_size, stride=stride, padding=padding
    )


def dropout_mask(a, mask):
    """Apply a precomputed dropout mask (already scaled by 1/keep_prob)."""
    return DropoutMask.apply(as_tensor(a), np.asarray(mask))


Tensor.__matmul__ = matmul
Tensor.relu = relu
Tensor.sigmoid = sigmoid
Tensor.tanh = tanh
Tensor.softmax = softmax
Tensor.log_softmax = log_softmax
