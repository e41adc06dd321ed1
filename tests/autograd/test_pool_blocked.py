"""Parity and memory tests for the cache-blocked 2x2 ``MaxPool2d`` kernel.

The oracle is the whole-batch kernel the blocked one replaced: max/argmax
over the four slot views of the full batch at once, and a backward that
routes the gradient with one 6-D broadcast multiply.  Max, comparisons and
the masked multiply are exact, so the blocked kernel must agree bit for bit
in both dtypes, ties included, on every number of kernel lanes.
"""

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, max_pool2d
from repro.autograd import ops_nn
from repro.runtime import precision
from tests.helpers import in_layout, kernel_lanes

SHAPES = [
    # (batch, channels, size)
    (128, 16, 28),   # mnist_cnn pool1 at batch 128
    (128, 32, 14),   # mnist_cnn pool2 at batch 128
    (13, 16, 28),    # last block partial
    (3, 2, 6),       # several images per block
]
LAYOUTS = ["nchw", "nhwc"]
DTYPES = ["float64", "float32"]

# Window slot of each cell of a 2x2 tile, broadcast against the
# (N, out_h, 2, out_w, 2, C) window view.
_SLOTS_2X2 = np.arange(4, dtype=np.int8).reshape(1, 1, 2, 1, 2, 1)


def whole_batch_max_pool(x):
    """``(out, argmax)`` of an ``(N, H, W, C)`` array, whole batch at once."""
    n, h, w, c = x.shape
    view = x.reshape(n, h // 2, 2, w // 2, 2, c)
    s0, s1 = view[:, :, 0, :, 0], view[:, :, 0, :, 1]
    s2, s3 = view[:, :, 1, :, 0], view[:, :, 1, :, 1]
    m01 = np.maximum(s0, s1)
    m23 = np.maximum(s2, s3)
    a01 = (s1 > s0).view(np.int8)
    a23 = (s3 > s2).view(np.int8)
    high = m23 > m01
    argmax = a01 + high * (a23 + 2 - a01)
    return np.maximum(m01, m23, out=m01), argmax


def whole_batch_max_pool_backward(grad, argmax):
    """``(N, H, W, C)`` input gradient of ``(N, out_h, out_w, C)`` ``grad``."""
    n, out_h, out_w, c = grad.shape
    grad_x = np.empty((n, 2 * out_h, 2 * out_w, c), grad.dtype)
    np.multiply(
        grad[:, :, None, :, None, :],
        argmax[:, :, None, :, None, :] == _SLOTS_2X2,
        out=grad_x.reshape(n, out_h, 2, out_w, 2, c),
    )
    return grad_x


def draw(shape, dtype, layout, seed=0):
    """Integer-valued input (so windows hold ties) and an output gradient."""
    n, c, size = shape
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n, c, size, size)).astype(dtype)
    grad = rng.normal(size=(n, c, size // 2, size // 2)).astype(dtype)
    return in_layout(x, layout), in_layout(grad, layout)


def nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_matches_whole_batch_oracle(shape, layout, dtype):
    x, grad = draw(shape, dtype, layout)
    with precision(dtype):
        tx = Tensor(x, requires_grad=True)
        out = max_pool2d(tx, 2)
        out.backward(grad)
    out_nhwc, argmax = whole_batch_max_pool(nhwc(x))
    grad_x = whole_batch_max_pool_backward(nhwc(grad), argmax)
    assert out.data.dtype == tx.grad.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(nhwc(out.data), out_nhwc)
    np.testing.assert_array_equal(nhwc(tx.grad), grad_x)


@pytest.mark.parametrize("shape", SHAPES)
def test_first_maximum_in_row_major_order_wins(shape):
    x, _ = draw(shape, "float64", "nhwc")
    n, c, size = shape
    _, argmax = ops_nn._max_pool_2x2(nhwc(x))
    windows = (
        nhwc(x).reshape(n, size // 2, 2, size // 2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4).reshape(n, size // 2, size // 2, c, 4)
    )
    # np.argmax returns the first of equal maxima.
    np.testing.assert_array_equal(argmax, windows.argmax(axis=-1))
    assert (windows == windows.max(axis=-1, keepdims=True)).sum(-1).max() > 1


def test_pool1_forward_holds_no_full_batch_temporaries():
    """Transient bytes of one pool1-shaped forward at batch 128.

    Beyond ``out`` and the saved ``argmax``, the kernel holds only
    block-sized slot temporaries; the whole-batch kernel's second slot-pair
    maximum alone would be 3.2 MB.
    """
    x, _ = draw((128, 16, 28), "float64", "nhwc")
    tracemalloc.start()
    try:
        with precision("float64"):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = max_pool2d(Tensor(x, requires_grad=True), 2)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = out.data.nbytes + out.data.size  # out and its int8 argmax
    transient = peak - base - kept
    budget = ops_nn._BLOCK_BYTES
    assert transient <= budget, (
        f"pool1 forward held {transient / 2**20:.2f} MiB of temporaries "
        f"(budget {budget / 2**20:.2f} MiB)"
    )


@pytest.mark.parametrize("lanes", [2, 3])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES + [(45, 16, 28), (1, 16, 28)])
def test_results_do_not_depend_on_lane_count(shape, dtype, lanes):
    """Forward, argmax and input gradient on one lane and on several,
    including a partial last block (45 images: 5 blocks of up to 10) and
    fewer blocks than lanes."""
    x, grad = draw(shape, dtype, "nhwc")
    results = []
    for count in (1, lanes):
        with precision(dtype), kernel_lanes(count):
            tx = Tensor(x, requires_grad=True)
            out = max_pool2d(tx, 2)
            out.backward(grad)
            _, argmax = ops_nn._max_pool_2x2(nhwc(x))
        results.append((out.data, argmax, tx.grad))
    for a, e in zip(*results):
        assert a.dtype == e.dtype
        assert np.array_equal(a, e)
