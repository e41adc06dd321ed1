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

Patches are read through :func:`column_windows`, a zero-copy
``np.lib.stride_tricks.sliding_window_view`` of the padded images; the only
copy is the write into the column matrix.

The adjoint takes the columns' gradient *position-major*:
``(kh, kw, N, out_h, out_w, C)``, one image-shaped slab per kernel position.
``Conv2d`` computes that layout directly (a GEMM per kernel position), so
each slab adds into the padded image gradient in whole-row runs rather than
in runs of ``C`` channels.

Two levels
----------
:func:`gather_columns` and :func:`scatter_columns` work on already padded
NHWC images and write into a buffer the caller passes, so ``Conv2d`` can run
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
    "column_windows",
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


def column_windows(
    padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> np.ndarray:
    """``(N, out_h, out_w, kh, kw, C)`` strided view of the receptive fields
    of an ``(N, H', W', C)`` array of already padded images (no copy).

    Build it once per batch and slice blocks of images off its first axis:
    ``sliding_window_view`` costs far more Python time than a slice.
    """
    _, padded_h, padded_w, _ = padded.shape
    out_h = (padded_h - kernel_h) // stride + 1
    out_w = (padded_w - kernel_w) // stride + 1
    windows = sliding_window_view(padded, (kernel_h, kernel_w), axis=(1, 2))
    return windows[
        :,
        : (out_h - 1) * stride + 1 : stride,
        : (out_w - 1) * stride + 1 : stride,
    ].transpose(0, 1, 2, 4, 5, 3)


def gather_columns(windows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``(kh, kw, C)``-ordered columns of a :func:`column_windows`
    view (or a block of one) into the C-contiguous
    ``(N * out_h * out_w, kh * kw * C)`` buffer ``out``.  Returns ``out``.
    """
    _, _, _, kernel_h, kernel_w, c = windows.shape
    cols = out.reshape(windows.shape)
    if c > 1:
        # One copy whose contiguous runs are whole window rows (kw * C).
        cols[...] = windows
        return out
    # A one-channel window row is only kw elements long; one strided copy
    # per kernel position instead runs along whole output rows.
    for i in range(kernel_h):
        for j in range(kernel_w):
            cols[:, :, :, i, j] = windows[:, :, :, i, j]
    return out


def scatter_columns(
    positions: np.ndarray, padded: np.ndarray, stride: int
) -> np.ndarray:
    """Adjoint of :func:`gather_columns`: overwrite the ``(N, H', W', C)``
    array ``padded`` with the scatter-add of ``positions``.  Returns
    ``padded``.

    ``positions`` is position-major, ``(kh, kw, N, out_h, out_w, C)``, in
    any strides: ``positions[i, j]`` is what kernel position ``(i, j)``
    sends back to each output pixel's receptive field.  Stored
    contiguously, each ``+=`` below moves whole ``out_w * C`` image rows
    (at stride 1).
    """
    kernel_h, kernel_w, _, out_h, out_w, _ = positions.shape
    padded.fill(0.0)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, i:i_max:stride, j:j_max:stride] += positions[i, j]
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
    gather_columns(column_windows(src, kernel_h, kernel_w, stride), out=cols)
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
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    # Position-major view of the (kh, kw, C)-ordered columns.
    positions = cols.reshape(n, out_h, out_w, kernel_h, kernel_w, c).transpose(
        3, 4, 0, 1, 2, 5
    )
    # Without padding the accumulator itself escapes as the gradient, so it
    # must not come from (or return to) the pool.
    if padding == 0:
        padded = np.empty((n, h, w, c), dtype=cols.dtype)
        scatter_columns(positions, padded, stride)
        return padded.transpose(0, 3, 1, 2)
    ws = get_workspace()
    padded = ws.acquire((n, h + 2 * padding, w + 2 * padding, c), cols.dtype)
    scatter_columns(positions, padded, stride)
    out = np.empty((n, h, w, c), dtype=padded.dtype)
    out[...] = padded[:, padding:-padding, padding:-padding, :]
    ws.release(padded)
    return out.transpose(0, 3, 1, 2)
