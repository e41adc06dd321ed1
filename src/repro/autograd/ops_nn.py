"""Neural-network operations: matmul, activations, log-softmax, conv, pooling.

Importing this module attaches ``matmul``/``@`` and activation methods onto
:class:`~repro.autograd.Tensor`.
"""

from __future__ import annotations

import numpy as np

from ..runtime import get_workspace
from ._im2col import (
    col2im,
    column_windows,
    conv_output_size,
    gather_columns,
    im2col,
    pad_nhwc,
    scatter_columns,
)
from ._lanes import map_blocks
from .engine import Function, Tensor, as_tensor, is_grad_enabled
from .ops_basic import unbroadcast
from .ops_reduce import logsumexp


__all__ = [
    "matmul",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "log_softmax",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
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


# Bytes of one block of the conv column matrix: Conv2d builds and consumes
# its columns (and their gradient) one block of images at a time, so the
# working set stays inside a core's L2 cache instead of a full-batch
# temporary streaming through memory.  The blocks of one call are split
# across the kernel lanes (see ._lanes), each lane with its own scratch.
_BLOCK_BYTES = 1 << 20


def _image_blocks(n, image_bytes):
    """Images per block and the ``slice`` of each block of an ``n``-image
    batch whose per-image column matrix takes ``image_bytes``."""
    per_block = max(1, min(n, _BLOCK_BYTES // image_bytes))
    return per_block, [
        slice(start, min(start + per_block, n))
        for start in range(0, n, per_block)
    ]


def _sum_blocks(partials):
    """Sum of per-block partials, added in block order from zero: the
    sequence of additions of one loop over the blocks."""
    total = np.zeros(partials.shape[1:], partials.dtype)
    for partial in partials:
        total += partial
    return total


class Conv2d(Function):
    """2-D cross-correlation via im2col + GEMM, one block of images at a
    time (see ``_BLOCK_BYTES``), the blocks split across the kernel lanes.

    Takes and returns NCHW-shaped arrays; the output (and the input
    gradient) is a view of NHWC memory (see :mod:`._im2col`).  Forward
    saves the padded input rather than the columns; the weight gradient
    rebuilds each block's columns.
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
        padded = pad_nhwc(x, padding)
        windows = column_windows(padded, kh, kw, stride)
        # Weight permuted once to the (kh, kw, C)-ordered column layout.
        w_mat = weight.transpose(0, 2, 3, 1).reshape(c_out, -1)
        rows, k = out_h * out_w, w_mat.shape[1]
        per_block, blocks = _image_blocks(n, rows * k * x.dtype.itemsize)
        out_dtype = np.result_type(x.dtype, weight.dtype)
        if bias is not None:
            out_dtype = np.result_type(out_dtype, bias.dtype)
        out = np.empty((n, out_h, out_w, c_out), out_dtype)

        def run(indices):
            cols = np.empty((per_block * rows, k), x.dtype)
            for i in indices:
                block = blocks[i]
                block_cols = cols[: (block.stop - block.start) * rows]
                gather_columns(windows[block], out=block_cols)
                block_out = out[block].reshape(-1, c_out)
                np.matmul(block_cols, w_mat.T, out=block_out)
                if bias is not None:
                    block_out += bias  # while the block is still in cache

        map_blocks(run, len(blocks))
        if is_grad_enabled():
            ctx.save_for_backward(
                padded, w_mat, weight.shape, x.shape, stride, padding,
                bias is not None,
            )
        return out.transpose(0, 3, 1, 2)

    @staticmethod
    def backward(ctx, grad_output):
        padded, w_mat, w_shape, x_shape, stride, padding, has_bias = ctx.saved
        c_out, c_in, kh, kw = w_shape
        n, _, h, w = x_shape
        # (N, out_h, out_w, C_out): a free view of NHWC memory; each block
        # below reshapes to (rows, C_out) without a copy for that layout.
        grad = grad_output.transpose(0, 2, 3, 1)
        out_h, out_w = grad.shape[1:3]
        rows, k = out_h * out_w, w_mat.shape[1]
        per_block, blocks = _image_blocks(n, rows * k * padded.dtype.itemsize)
        # The input (e.g. a clean training batch, as opposed to an attack's
        # perturbation variable) or the weights (frozen by an attack) may
        # take no gradient: then that GEMM, and the column rebuild or the
        # scatter, are skipped.  The weight and bias gradients are kept as
        # one partial per block and summed in block order below, so they
        # do not depend on which lane ran which block.
        need_x, need_w = ctx.needs(0), ctx.needs(1)
        need_bias = has_bias and ctx.needs(2)
        if need_w:
            windows = column_windows(padded, kh, kw, stride)
            # The narrower operand goes on the left of the weight-gradient
            # GEMM: OpenBLAS runs conv1's (9 x rows) @ (rows x 16) about a
            # third faster than (16 x rows) @ (rows x 9), and conv2's
            # (32 x rows) @ (rows x 144) faster than its transpose.
            cols_left = k < c_out
            w_partials = np.empty(
                (len(blocks), *((k, c_out) if cols_left else (c_out, k))),
                np.result_type(grad.dtype, padded.dtype),
            )
        if need_bias:
            bias_partials = np.empty((len(blocks), c_out), grad.dtype)
        if need_x:
            result_dtype = np.result_type(grad.dtype, w_mat.dtype)
            # One (C_out, C_in) weight matrix per kernel position: the input
            # gradient is built position-major (see scatter_columns).
            w_pos = w_mat.reshape(c_out, kh * kw, c_in).transpose(1, 0, 2)
            grad_x = np.empty((n, h, w, c_in), result_dtype)

        def run(indices):
            if need_w:
                cols = np.empty((per_block * rows, k), padded.dtype)
            if need_bias:
                # A GEMV against ones: a column sum of the tall, narrow
                # gradient matrix is several times slower as an axis-0
                # reduce.
                ones = np.ones(per_block * rows, grad.dtype)
            if need_x:
                positions = np.empty(
                    (kh * kw, per_block * rows, c_in), result_dtype
                )
                if padding > 0:
                    grad_padded = np.empty(
                        (per_block, *padded.shape[1:]), result_dtype
                    )
            for i in indices:
                block = blocks[i]
                count = block.stop - block.start
                block_rows = count * rows
                grad_mat = grad[block].reshape(-1, c_out)
                if need_w:
                    block_cols = cols[:block_rows]
                    gather_columns(windows[block], out=block_cols)
                    if cols_left:
                        np.matmul(block_cols.T, grad_mat, out=w_partials[i])
                    else:
                        np.matmul(grad_mat.T, block_cols, out=w_partials[i])
                if need_bias:
                    np.matmul(
                        ones[:block_rows], grad_mat, out=bias_partials[i]
                    )
                if not need_x:
                    continue
                block_positions = positions[:, :block_rows]
                if c_in == 1:
                    # Each position's product is then a vector: one GEMM
                    # against the transposed gradient yields all of them.
                    np.matmul(
                        w_pos[:, :, 0], grad_mat.T,
                        out=block_positions[:, :, 0],
                    )
                else:
                    np.matmul(grad_mat, w_pos, out=block_positions)
                block_positions = block_positions.reshape(
                    kh, kw, count, out_h, out_w, c_in
                )
                if padding == 0:
                    scatter_columns(block_positions, grad_x[block], stride)
                else:
                    scatter_columns(
                        block_positions, grad_padded[:count], stride
                    )
                    grad_x[block] = grad_padded[
                        :count, padding : padding + h, padding : padding + w
                    ]

        map_blocks(run, len(blocks))
        grad_w_mat = grad_bias = None
        if need_w:
            # Back from the (kh, kw, C) column order to a C-contiguous
            # (C_out, C_in, kh, kw) gradient.
            grad_w_mat = _sum_blocks(w_partials)
            if cols_left:
                grad_w_mat = grad_w_mat.T
            grad_w_mat = np.ascontiguousarray(
                grad_w_mat.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
            )
        if need_bias:
            grad_bias = _sum_blocks(bias_partials)
        if need_x:
            grad_x = grad_x.transpose(0, 3, 1, 2)
        return (grad_x if need_x else None), grad_w_mat, grad_bias


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


def _max_pool_2x2(x):
    """``(out, argmax)`` of 2x2 max pooling over an ``(N, H, W, C)`` array
    with even ``H`` and ``W``; ``argmax`` is the int8 window slot
    (row-major: 0 top-left ... 3 bottom-right) of each maximum.

    Hand-rolled max/argmax over the four slot views of the window view beats
    np.argmax's generic reduction.  Strict ``>`` comparisons keep np.argmax's
    first-max tie-breaking; the slot index is selected branch-free (np.where
    is several times slower on random masks).  Runs one block of images at a
    time (see ``_BLOCK_BYTES``), the blocks split across the kernel lanes,
    so the slot temporaries stay in cache; only ``out`` and ``argmax`` are
    batch-sized.
    """
    n, h, w, c = x.shape
    view = _windows(x, 2)
    out = np.empty((n, h // 2, w // 2, c), x.dtype)
    argmax = np.empty(out.shape, np.int8)
    per_block, blocks = _image_blocks(n, x[0].nbytes)
    block_shape = (per_block, *out.shape[1:])

    def run(indices):
        scratch = [np.empty(block_shape, x.dtype)] + [
            np.empty(block_shape, np.bool_) for _ in range(3)
        ]
        for i in indices:
            block = blocks[i]
            v = view[block]
            s0, s1 = v[:, :, 0, :, 0], v[:, :, 0, :, 1]
            s2, s3 = v[:, :, 1, :, 0], v[:, :, 1, :, 1]
            m01, slot = out[block], argmax[block]
            m23, a01, a23, high = (
                a[: block.stop - block.start] for a in scratch
            )
            np.maximum(s0, s1, out=m01)
            np.maximum(s2, s3, out=m23)
            np.greater(s1, s0, out=a01)
            np.greater(s3, s2, out=a23)
            np.greater(m23, m01, out=high)
            # slot = a01 + high * (a23 + 2 - a01), in int8.
            a01 = a01.view(np.int8)
            np.subtract(a23.view(np.int8), a01, out=slot)
            slot += 2
            slot *= high
            slot += a01
            np.maximum(m01, m23, out=m01)

    map_blocks(run, len(blocks))
    return out, argmax


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
            out, argmax = _max_pool_2x2(_nhwc(x))
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
            # the argmax slot, zero elsewhere — one pass per slot view of
            # each block of the NHWC input gradient.
            grad_x = np.empty((n, h, w, c), dtype=grad_output.dtype)
            slots = _windows(grad_x, 2)
            _, blocks = _image_blocks(n, grad_x[0].nbytes)

            def run(indices):
                for i in indices:
                    block = blocks[i]
                    for slot in range(4):
                        np.multiply(
                            grad[block], argmax[block] == slot,
                            out=slots[block, :, slot // 2, :, slot % 2],
                        )

            map_blocks(run, len(blocks))
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


Tensor.__matmul__ = matmul
Tensor.relu = relu
Tensor.sigmoid = sigmoid
Tensor.tanh = tanh
Tensor.log_softmax = log_softmax
