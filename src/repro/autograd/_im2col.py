"""im2col / col2im helpers used by the convolution and pooling kernels.

These are plain numpy routines (no autograd involvement).

Layout convention (channels-last)
---------------------------------
Images keep the NCHW *shape* ``(batch, channels, height, width)`` throughout
the project, but the conv and pooling kernels keep them in NHWC *memory*:
every image they return is the NCHW-shaped transpose view of a C-contiguous
``(N, H, W, C)`` buffer.  Inputs of any memory layout are accepted; one laid
out this way (the output of an earlier conv or pool, or of an elementwise op
on it) is read without a transposing copy.

Columns are ``(kh, kw, C)``-ordered: row ``r`` of the column matrix is the
receptive field of output pixel ``r`` (in ``(N, out_h, out_w)`` order) with
the channel index innermost, so each kernel position contributes one
contiguous run of channels.  A convolution weight ``(C_out, C, kh, kw)``
pairs with these columns once permuted to ``(C_out, kh, kw, C)``.

Patches are gathered through ``np.lib.stride_tricks.sliding_window_view``
(a zero-copy strided view; the only copy is the single C-level write into
the column matrix).

Two levels
----------
:func:`gather_columns` and :func:`scatter_columns` work on an already padded
NHWC array and write into a buffer the caller passes, so ``Conv2d`` can run
them one cache-sized block of images at a time into block-sized buffers of
its own (it never holds a full-batch column matrix and draws nothing from
the workspace pool).

:func:`im2col` and :func:`col2im` are their whole-batch forms, used by the
pooling kernels' non-tiling layouts.  ``im2col`` returns a workspace-acquired
buffer the *caller* owns and should release once the columns are dead (see
:mod:`repro.runtime.workspace`).  ``col2im``'s result escapes into the
autograd engine as a gradient, so it is allocated normally; only its
internal padded scratch buffer is pooled.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..runtime import get_workspace

__all__ = [
    "conv_output_size",
    "pad_nhwc",
    "gather_columns",
    "scatter_columns",
    "im2col",
    "col2im",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"window (kernel={kernel}, stride={stride}, padding={padding}) "
            f"does not fit input of size {size}"
        )
    return out


def pad_nhwc(
    x: np.ndarray, padding: int, pad_value: float = 0.0, out=None
) -> np.ndarray:
    """``(N, H + 2p, W + 2p, C)`` NHWC form of an NCHW-shaped image, with a
    border of ``pad_value``.

    Without padding this is the NHWC transpose *view* of ``x`` (no copy);
    otherwise it is written into ``out`` when given, a fresh array if not.
    """
    src = x.transpose(0, 2, 3, 1)
    if padding == 0:
        return src
    n, h, w, c = src.shape
    if out is None:
        out = np.empty((n, h + 2 * padding, w + 2 * padding, c), x.dtype)
    out.fill(pad_value)
    out[:, padding : padding + h, padding : padding + w, :] = src
    return out


def gather_columns(
    padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int, out
) -> np.ndarray:
    """Write the ``(kh, kw, C)``-ordered columns of ``padded`` into ``out``.

    ``padded`` is an ``(N, H', W', C)`` array of already padded images, in
    any strides; ``out`` is an ``(N * out_h * out_w, kernel_h * kernel_w * C)``
    C-contiguous buffer.  Returns ``out``.
    """
    n, padded_h, padded_w, c = padded.shape
    out_h = (padded_h - kernel_h) // stride + 1
    out_w = (padded_w - kernel_w) // stride + 1
    # (N, H', W', C, kh, kw) strided view over every window start, then
    # subsampled to the stride grid — no data is copied until the final
    # gather below, whose innermost runs are contiguous channel vectors.
    windows = sliding_window_view(padded, (kernel_h, kernel_w), axis=(1, 2))
    windows = windows[
        :,
        : (out_h - 1) * stride + 1 : stride,
        : (out_w - 1) * stride + 1 : stride,
    ]
    out.reshape(n, out_h, out_w, kernel_h, kernel_w, c)[...] = (
        windows.transpose(0, 1, 2, 4, 5, 3)
    )
    return out


def scatter_columns(
    cols: np.ndarray, padded: np.ndarray, kernel_h: int, kernel_w: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`gather_columns`: overwrite the ``(N, H', W', C)``
    array ``padded`` with the scatter-add of ``cols``.  Returns ``padded``.
    """
    n, padded_h, padded_w, c = padded.shape
    out_h = (padded_h - kernel_h) // stride + 1
    out_w = (padded_w - kernel_w) // stride + 1
    cols = cols.reshape(n, out_h, out_w, kernel_h, kernel_w, c)
    if (
        stride == kernel_h == kernel_w
        and padded_h == out_h * stride
        and padded_w == out_w * stride
    ):
        # Non-overlapping windows that tile the (padded) image exactly —
        # the pooling layout.  The scatter-add degenerates to a pure
        # permutation, served by one strided assignment with no zero fill.
        padded.reshape(n, out_h, kernel_h, out_w, kernel_w, c)[...] = (
            cols.transpose(0, 1, 3, 2, 4, 5)
        )
        return padded
    # Both sides of each `+=` move contiguous channel vectors.
    padded.fill(0.0)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, i:i_max:stride, j:j_max:stride, :] += cols[:, :, :, i, j, :]
    return padded


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    pad_value: float = 0.0,
) -> np.ndarray:
    """Rearrange image patches into ``(kh, kw, C)``-ordered columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``, in any memory layout (NHWC memory
        is read without a transposing copy).
    pad_value:
        Fill value for the padded border (``0`` for convolution and average
        pooling; ``-inf`` for max pooling so padding can never win argmax).

    Returns
    -------
    Array of shape ``(N * out_h * out_w, kernel_h * kernel_w * C)`` where each
    row is one receptive field.  This is a workspace buffer owned by the
    caller.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    ws = get_workspace()
    pad_buf = None
    if padding > 0:
        pad_buf = ws.acquire(
            (n, h + 2 * padding, w + 2 * padding, c), x.dtype
        )
    src = pad_nhwc(x, padding, pad_value, out=pad_buf)
    cols = ws.acquire((n * out_h * out_w, kernel_h * kernel_w * c), x.dtype)
    gather_columns(src, kernel_h, kernel_w, stride, out=cols)
    if pad_buf is not None:
        ws.release(pad_buf)
    return cols


def col2im(
    cols: np.ndarray,
    input_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    Returns an ``input_shape`` (NCHW) view of a fresh NHWC array.
    """
    n, c, h, w = input_shape
    # Without padding the accumulator itself escapes as the gradient, so it
    # must not come from (or return to) the pool.
    if padding == 0:
        padded = np.empty((n, h, w, c), dtype=cols.dtype)
        scatter_columns(cols, padded, kernel_h, kernel_w, stride)
        return padded.transpose(0, 3, 1, 2)
    ws = get_workspace()
    padded = ws.acquire((n, h + 2 * padding, w + 2 * padding, c), cols.dtype)
    scatter_columns(cols, padded, kernel_h, kernel_w, stride)
    out = np.empty((n, h, w, c), dtype=padded.dtype)
    out[...] = padded[:, padding:-padding, padding:-padding, :]
    ws.release(padded)
    return out.transpose(0, 3, 1, 2)
