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
    """2-D cross-correlation over NCHW inputs via im2col + GEMM."""

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
        w_mat = weight.reshape(c_out, -1)
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
                cols, weight, x.shape, stride, padding, bias is not None
            )
        else:
            get_workspace().release(cols)
        return out

    @staticmethod
    def backward(ctx, grad_output):
        cols, weight, x_shape, stride, padding, has_bias = ctx.saved
        if cols is None:
            raise RuntimeError(
                "Conv2d backward called twice on the same graph node; the "
                "column workspace buffer has already been recycled"
            )
        c_out, c_in, kh, kw = weight.shape
        workspace = get_workspace()
        # grad_output: (N, C_out, out_h, out_w) -> (N*out_h*out_w, C_out)
        n_out, _, out_h, out_w = grad_output.shape
        grad_mat = workspace.acquire((n_out * out_h * out_w, c_out),
                                     grad_output.dtype)
        grad_mat.reshape(n_out, out_h, out_w, c_out)[...] = (
            grad_output.transpose(0, 2, 3, 1)
        )
        grad_weight = (
            (grad_mat.T @ cols).reshape(weight.shape) if ctx.needs(1) else None
        )
        grad_bias = grad_mat.sum(axis=0) if has_bias and ctx.needs(2) else None
        result_dtype = np.result_type(grad_mat.dtype, weight.dtype)
        n, _, h, w = x_shape
        if not ctx.needs(0):
            # The input (e.g. a clean training batch, as opposed to an
            # attack's perturbation variable) takes no gradient: skip the
            # whole input-gradient GEMM + scatter.
            grad_x = None
        elif c_in * kh * kw >= 64:
            # Fused GEMM + scatter: one small GEMM per kernel position,
            # accumulated straight into an NHWC image buffer.  Skips
            # materialising the full (rows, C_in*kh*kw) column gradient and
            # keeps every read/write contiguous; wins once the per-position
            # GEMMs are big enough to amortise the k^2 BLAS dispatches.
            padded = workspace.acquire(
                (n, h + 2 * padding, w + 2 * padding, c_in), result_dtype
            )
            padded.fill(0.0)
            tmp = workspace.acquire((grad_mat.shape[0], c_in), result_dtype)
            i_max = stride * out_h
            j_max = stride * out_w
            for i in range(kh):
                for j in range(kw):
                    np.matmul(grad_mat, weight[:, :, i, j], out=tmp)
                    padded[:, i : i + i_max : stride, j : j + j_max : stride, :] += (
                        tmp.reshape(n_out, out_h, out_w, c_in)
                    )
            if padding > 0:
                core = padded[:, padding:-padding, padding:-padding, :]
            else:
                core = padded
            grad_x = np.empty((n, c_in, h, w), dtype=result_dtype)
            grad_x[...] = core.transpose(0, 3, 1, 2)
            workspace.release(tmp)
            workspace.release(padded)
        else:
            w_mat = weight.reshape(c_out, -1)
            grad_cols = workspace.acquire(
                (grad_mat.shape[0], w_mat.shape[1]), result_dtype
            )
            np.matmul(grad_mat, w_mat, out=grad_cols)
            grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
            workspace.release(grad_cols)
        workspace.release(grad_mat)
        workspace.release(cols)
        ctx.save_for_backward(None, weight, x_shape, stride, padding, has_bias)
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


class MaxPool2d(Function):
    """Max pooling over square windows (argmax gradient routing)."""
    @staticmethod
    def forward(ctx, x, kernel_size=2, stride=None, padding=0):
        stride = stride or kernel_size
        n, c, h, w = x.shape
        out_h = conv_output_size(h, kernel_size, stride, padding)
        out_w = conv_output_size(w, kernel_size, stride, padding)
        k2 = kernel_size * kernel_size
        workspace = get_workspace()
        if _pool_tiles(x.shape, kernel_size, stride, padding):
            # Windows tile the image: expose them as an NCHW reshape view and
            # keep every later array in NCHW, avoiding the two NHWC transpose
            # copies the column route pays.
            view = x.reshape(n, c, out_h, kernel_size, out_w, kernel_size)
            if kernel_size == 2:
                # 2x2 windows: hand-rolled max/argmax over the four strided
                # slot views beats np.argmax's generic reduction (and skips
                # the take_along_axis gather).  Strict `>` comparisons keep
                # np.argmax's first-max tie-breaking.
                s0, s1 = view[:, :, :, 0, :, 0], view[:, :, :, 0, :, 1]
                s2, s3 = view[:, :, :, 1, :, 0], view[:, :, :, 1, :, 1]
                m01 = np.maximum(s0, s1)
                m23 = np.maximum(s2, s3)
                a01 = (s1 > s0).astype(np.int64)
                a23 = (s3 > s2).astype(np.int64)
                a23 += 2
                high = m23 > m01
                out = np.where(high, m23, m01)
                argmax = np.where(high, a23, a01)
            else:
                windows = view.transpose(0, 1, 2, 4, 3, 5)
                tiles = workspace.acquire((n, c, out_h, out_w, k2), x.dtype)
                tiles.reshape(
                    n, c, out_h, out_w, kernel_size, kernel_size
                )[...] = windows
                argmax = tiles.argmax(axis=4)
                out = np.take_along_axis(tiles, argmax[..., None], axis=4)[..., 0]
                workspace.release(tiles)
            ctx.save_for_backward(
                argmax, x.shape, kernel_size, stride, padding, None
            )
            return out
        # Padding cells are -inf, not 0: with zero padding the argmax would
        # prefer a padding cell over genuinely negative activations, both
        # corrupting the forward value and routing gradient into the void.
        flat = im2col(
            x, kernel_size, kernel_size, stride, padding, pad_value=-np.inf
        )
        cols = flat.reshape(-1, c, k2)
        # rows of `cols` are (N*out_h*out_w, C, K*K)
        argmax = cols.argmax(axis=2)
        out = np.take_along_axis(cols, argmax[..., None], axis=2)[..., 0]
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        ctx.save_for_backward(
            argmax, x.shape, kernel_size, stride, padding, cols.shape
        )
        workspace.release(flat)
        return out

    @staticmethod
    def backward(ctx, grad_output):
        argmax, x_shape, kernel_size, stride, padding, cols_shape = ctx.saved
        n, c, h, w = x_shape
        workspace = get_workspace()
        if cols_shape is None:
            # NCHW tiling route (see forward): scatter into per-window
            # slots, then one strided assignment back to image layout.
            out_h, out_w = h // kernel_size, w // kernel_size
            k2 = kernel_size * kernel_size
            if kernel_size == 2:
                # 2x2 windows: route each gradient straight into its slot's
                # strided view with a masked copy — same index routing as
                # the put_along_axis scatter below, minus the slot buffer
                # and the transpose copy back to image layout.
                grad_x = np.zeros((n, c, h, w), dtype=grad_output.dtype)
                view = grad_x.reshape(n, c, out_h, 2, out_w, 2)
                mask = np.empty(argmax.shape, dtype=bool)
                for slot, dst in enumerate((
                    view[:, :, :, 0, :, 0], view[:, :, :, 0, :, 1],
                    view[:, :, :, 1, :, 0], view[:, :, :, 1, :, 1],
                )):
                    np.equal(argmax, slot, out=mask)
                    np.copyto(dst, grad_output, where=mask)
                return (grad_x,)
            slots = workspace.acquire((n, c, out_h, out_w, k2),
                                      grad_output.dtype)
            slots.fill(0.0)
            np.put_along_axis(
                slots, argmax[..., None], grad_output[..., None], axis=4
            )
            grad_x = np.empty((n, c, h, w), dtype=grad_output.dtype)
            grad_x.reshape(
                n, c, out_h, kernel_size, out_w, kernel_size
            )[...] = slots.reshape(
                n, c, out_h, out_w, kernel_size, kernel_size
            ).transpose(0, 1, 2, 4, 3, 5)
            workspace.release(slots)
            return (grad_x,)
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, c)
        grad_cols = workspace.acquire(cols_shape, grad_output.dtype)
        grad_cols.fill(0.0)
        np.put_along_axis(grad_cols, argmax[..., None], grad_flat[..., None], axis=2)
        grad_x = col2im(
            grad_cols.reshape(grad_cols.shape[0], -1),
            x_shape, kernel_size, kernel_size, stride, padding,
        )
        workspace.release(grad_cols)
        return (grad_x,)


class AvgPool2d(Function):
    """Average pooling over square windows."""
    @staticmethod
    def forward(ctx, x, kernel_size=2, stride=None, padding=0):
        stride = stride or kernel_size
        n, c, h, w = x.shape
        out_h = conv_output_size(h, kernel_size, stride, padding)
        out_w = conv_output_size(w, kernel_size, stride, padding)
        tiled = _pool_tiles(x.shape, kernel_size, stride, padding)
        ctx.save_for_backward(x.shape, kernel_size, stride, padding, tiled)
        if tiled:
            # Windows tile the image: reduce straight over the NCHW reshape
            # view, no column gather and no transpose copies.
            return x.reshape(
                n, c, out_h, kernel_size, out_w, kernel_size
            ).mean(axis=(3, 5))
        flat = im2col(x, kernel_size, kernel_size, stride, padding)
        cols = flat.reshape(-1, c, kernel_size * kernel_size)
        out = cols.mean(axis=2).reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        get_workspace().release(flat)
        return out

    @staticmethod
    def backward(ctx, grad_output):
        x_shape, kernel_size, stride, padding, tiled = ctx.saved
        n, c, h, w = x_shape
        k2 = kernel_size * kernel_size
        workspace = get_workspace()
        if tiled:
            # Every input cell in a window gets grad/k^2: one broadcast
            # assignment into the window view of the image gradient.
            out_h, out_w = h // kernel_size, w // kernel_size
            grad_x = np.empty((n, c, h, w), dtype=grad_output.dtype)
            grad_x.reshape(n, c, out_h, kernel_size, out_w, kernel_size)[...] = (
                (grad_output / k2)[:, :, :, None, :, None]
            )
            return (grad_x,)
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, c)
        grad_cols = workspace.acquire(
            (grad_flat.shape[0], c, k2), grad_flat.dtype
        )
        grad_cols[...] = (grad_flat / k2)[..., None]
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
