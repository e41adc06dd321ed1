"""im2col / col2im helpers used by the convolution and pooling kernels.

These are plain numpy routines (no autograd involvement).  Layout convention
throughout the project is NCHW: ``(batch, channels, height, width)``.

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
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    pad_value:
        Fill value for the padded border (``0`` for convolution and average
        pooling; ``-inf`` for max pooling so padding can never win argmax).

    Returns
    -------
    Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)`` where each
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
            (n, c, h + 2 * padding, w + 2 * padding), x.dtype
        )
        pad_buf.fill(pad_value)
        pad_buf[:, :, padding : padding + h, padding : padding + w] = x
        x = pad_buf
    # (N, C, H', W', kh, kw) strided view over every window start, then
    # subsampled to the stride grid — no data is copied until the final
    # gather below.
    windows = sliding_window_view(x, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[
        :,
        :,
        : (out_h - 1) * stride + 1 : stride,
        : (out_w - 1) * stride + 1 : stride,
    ]
    cols = ws.acquire((n * out_h * out_w, c * kernel_h * kernel_w), x.dtype)
    cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)[...] = (
        windows.transpose(0, 2, 3, 1, 4, 5)
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
    """Adjoint of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    ws = get_workspace()
    padded_h, padded_w = h + 2 * padding, w + 2 * padding
    if (
        stride == kernel_h == kernel_w
        and padded_h == out_h * stride
        and padded_w == out_w * stride
    ):
        # Non-overlapping windows that tile the (padded) image exactly —
        # the pooling layout.  The scatter-add degenerates to a pure
        # permutation, served by one strided assignment with no zero fill.
        if padding > 0:
            padded = ws.acquire((n, c, padded_h, padded_w), cols.dtype)
        else:
            # The accumulator itself escapes as the gradient, so it must
            # not come from (or return to) the pool.
            padded = np.empty((n, c, h, w), dtype=cols.dtype)
        padded.reshape(n, c, out_h, kernel_h, out_w, kernel_w)[...] = (
            cols.transpose(0, 3, 1, 4, 2, 5)
        )
        if padding > 0:
            out = np.empty((n, c, h, w), dtype=padded.dtype)
            out[...] = padded[:, :, padding:-padding, padding:-padding]
            ws.release(padded)
            return out
        return padded
    # General case: scatter-add in NHWC layout.  With channels innermost
    # both the (strided) destination window and the column slice touch
    # memory in near-contiguous runs, which is markedly faster than a
    # channels-first scatter.
    padded = ws.acquire((n, padded_h, padded_w, c), cols.dtype)
    padded.fill(0.0)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, i:i_max:stride, j:j_max:stride, :] += cols[:, :, :, :, i, j]
    if padding > 0:
        core = padded[:, padding:-padding, padding:-padding, :]
    else:
        core = padded
    out = np.empty((n, c, h, w), dtype=padded.dtype)
    out[...] = core.transpose(0, 3, 1, 2)
    ws.release(padded)
    return out
