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
the column matrix), and the column/padded scratch buffers are drawn from
the per-thread :class:`~repro.runtime.Workspace` pool so the
identically-shaped per-batch buffers are reused across training steps.

Buffer ownership: ``im2col`` returns a workspace-acquired buffer the
*caller* owns and should release once the columns are dead (see
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
    src = x.transpose(0, 2, 3, 1)
    pad_buf = None
    if padding > 0:
        pad_buf = ws.acquire(
            (n, h + 2 * padding, w + 2 * padding, c), x.dtype
        )
        pad_buf.fill(pad_value)
        pad_buf[:, padding : padding + h, padding : padding + w, :] = src
        src = pad_buf
    # (N, H', W', C, kh, kw) strided view over every window start, then
    # subsampled to the stride grid — no data is copied until the final
    # gather below, whose innermost runs are contiguous channel vectors.
    windows = sliding_window_view(src, (kernel_h, kernel_w), axis=(1, 2))
    windows = windows[
        :,
        : (out_h - 1) * stride + 1 : stride,
        : (out_w - 1) * stride + 1 : stride,
    ]
    cols = ws.acquire((n * out_h * out_w, kernel_h * kernel_w * c), x.dtype)
    cols.reshape(n, out_h, out_w, kernel_h, kernel_w, c)[...] = (
        windows.transpose(0, 1, 2, 4, 5, 3)
    )
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
    cols = cols.reshape(n, out_h, out_w, kernel_h, kernel_w, c)
    padded_h, padded_w = h + 2 * padding, w + 2 * padding
    tiles = (
        stride == kernel_h == kernel_w
        and padded_h == out_h * stride
        and padded_w == out_w * stride
    )
    # Without padding the accumulator itself escapes as the gradient, so it
    # must not come from (or return to) the pool.
    ws = get_workspace()
    if padding > 0:
        padded = ws.acquire((n, padded_h, padded_w, c), cols.dtype)
    else:
        padded = np.empty((n, h, w, c), dtype=cols.dtype)
    if tiles:
        # Non-overlapping windows that tile the (padded) image exactly —
        # the pooling layout.  The scatter-add degenerates to a pure
        # permutation, served by one strided assignment with no zero fill.
        padded.reshape(n, out_h, kernel_h, out_w, kernel_w, c)[...] = (
            cols.transpose(0, 1, 3, 2, 4, 5)
        )
    else:
        # Both sides of each `+=` move contiguous channel vectors.
        padded.fill(0.0)
        for i in range(kernel_h):
            i_max = i + stride * out_h
            for j in range(kernel_w):
                j_max = j + stride * out_w
                padded[:, i:i_max:stride, j:j_max:stride, :] += (
                    cols[:, :, :, i, j, :]
                )
    if padding == 0:
        return padded.transpose(0, 3, 1, 2)
    out = np.empty((n, h, w, c), dtype=padded.dtype)
    out[...] = padded[:, padding:-padding, padding:-padding, :]
    ws.release(padded)
    return out.transpose(0, 3, 1, 2)
