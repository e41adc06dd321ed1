"""Oracle tests for the im2col/col2im kernels.

The sliding-window gather must be bit-compatible with a plain
kernel-position loop across every stride / padding / kernel combination the
layers can produce, and the layout-specialised scatter must be its exact
adjoint.
"""

import numpy as np
import pytest

from repro.autograd._im2col import col2im, conv_output_size, im2col
from repro.runtime import clear_workspace, get_workspace

CASES = [
    # (kernel, stride, padding)
    (3, 1, 0),
    (3, 1, 1),
    (3, 2, 1),
    (2, 2, 0),   # pooling tiling layout: pure-permutation col2im
    (2, 2, 1),
    (3, 3, 0),
    (5, 1, 2),
    (2, 1, 0),
]


def loop_im2col(x, kernel, stride, padding, pad_value=0.0):
    """Kernel-position-loop im2col: the ground truth for the fast gather."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x = np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        constant_values=pad_value,
    )
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = x[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ]
    # Columns are (kh, kw, C)-ordered: channel innermost.
    return cols.transpose(0, 4, 5, 2, 3, 1).reshape(n * out_h * out_w, -1)


@pytest.fixture(autouse=True)
def _clean_pool():
    clear_workspace()
    yield
    clear_workspace()


@pytest.mark.parametrize("kernel,stride,padding", CASES)
def test_im2col_matches_reference(kernel, stride, padding):
    x = np.random.default_rng(0).normal(size=(2, 3, 12, 12))
    expected = loop_im2col(x, kernel, stride, padding)
    fast = im2col(x, kernel, kernel, stride, padding)
    assert np.array_equal(fast, expected)
    get_workspace().release(fast)


@pytest.mark.parametrize("kernel,stride,padding", CASES)
def test_col2im_matches_reference(kernel, stride, padding):
    """col2im is defined as the adjoint of im2col:
    ``<im2col(x), C> == <x, col2im(C)>`` for every image x and columns C."""
    n, c, h, w = 2, 3, 12, 12
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(n, c, h, w))
    cols = rng.normal(size=(n * out_h * out_w, c * kernel * kernel))
    gathered = im2col(x, kernel, kernel, stride, padding)
    lhs = np.vdot(gathered, cols)
    get_workspace().release(gathered)
    rhs = np.vdot(x, col2im(cols, (n, c, h, w), kernel, kernel, stride, padding))
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_im2col_pad_value_reaches_border():
    x = np.full((1, 1, 2, 2), 7.0)
    cols = im2col(x, 2, 2, 1, 1, pad_value=-np.inf)
    assert cols.min() == -np.inf
    assert np.array_equal(cols, loop_im2col(x, 2, 1, 1, pad_value=-np.inf))
    get_workspace().release(cols)


def test_round_trip_counts_window_coverage():
    # col2im(im2col(x)) multiplies each cell by its window multiplicity;
    # for the 2x2/stride-2 tiling every cell is covered exactly once.
    x = np.random.default_rng(3).normal(size=(2, 2, 8, 8))
    cols = im2col(x, 2, 2, 2, 0)
    back = col2im(cols, x.shape, 2, 2, 2, 0)
    get_workspace().release(cols)
    assert np.allclose(back, x, atol=1e-12)
