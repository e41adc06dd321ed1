"""Parity and memory tests for the cache-blocked ``Conv2d`` kernel.

The oracle is the single-GEMM im2col convolution the blocked kernel
replaced: one full-batch column matrix serves the forward GEMM and both
gradient GEMMs, and the input gradient is one whole-batch ``col2im``.
The blocked kernel computes the same sums per block of images, so float64
results agree to rounding and float32 stays within its own precision of a
float64 evaluation.  The blocks run on the kernel lanes; every lane count
must give the same bits.
"""

import itertools
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, _lanes, conv2d
from repro.autograd import ops_nn
from repro.autograd._im2col import col2im, conv_output_size, im2col
from repro.runtime import clear_workspace, get_workspace, precision
from tests.helpers import in_layout, kernel_lanes

CASES = [
    # (batch, c_in, size, c_out, kernel, stride, padding)
    (1, 1, 28, 16, 3, 1, 1),      # batch 1
    (128, 1, 28, 16, 3, 1, 1),    # mnist_cnn conv1 at batch 128
    (128, 16, 14, 32, 3, 1, 1),   # mnist_cnn conv2 at batch 128
    (13, 16, 14, 32, 3, 1, 1),    # last block partial in both dtypes
    (7, 16, 14, 8, 5, 2, 2),      # kernel 5, stride 2, padding 2
    (9, 1, 12, 4, 2, 2, 0),       # kernel 2 tiling the image, padding 0
    (5, 16, 11, 8, 2, 1, 0),      # kernel 2, stride 1, padding 0
]
LAYOUTS = ["nchw", "nhwc"]


def single_gemm_conv2d(x, w, b, stride, padding, grad_out):
    """Output and (x, w, b) gradients through one full-batch column matrix."""
    c_out, c_in, kh, kw = w.shape
    n, _, h, width = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(width, kw, stride, padding)
    pooled = im2col(x, kh, kw, stride, padding)
    cols = pooled.copy()
    get_workspace().release(pooled)
    w_mat = w.transpose(0, 2, 3, 1).reshape(c_out, -1)
    out = (cols @ w_mat.T + b).reshape(n, out_h, out_w, c_out)
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)
    grad_w = (
        (grad_mat.T @ cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
    )
    grad_b = np.ones(grad_mat.shape[0], grad_mat.dtype) @ grad_mat
    grad_x = col2im(grad_mat @ w_mat, x.shape, kh, kw, stride, padding)
    return out.transpose(0, 3, 1, 2), grad_x, grad_w, grad_b


def draw(case, layout, seed=0):
    """Float64 inputs and an output gradient for one case."""
    n, c_in, size, c_out, k, stride, padding = case
    rng = np.random.default_rng(seed)
    x = in_layout(rng.normal(size=(n, c_in, size, size)), layout)
    w = rng.normal(size=(c_out, c_in, k, k)) / np.sqrt(c_in * k * k)
    b = rng.normal(size=c_out)
    out_size = conv_output_size(size, k, stride, padding)
    grad = in_layout(rng.normal(size=(n, c_out, out_size, out_size)), layout)
    return x, w, b, grad


def blocked_conv2d(x, w, b, stride, padding, grad_out):
    """Output and (x, w, b) gradients through the autograd ``conv2d``."""
    tx = Tensor(x, requires_grad=True)
    tw = Tensor(w, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = conv2d(tx, tw, tb, stride=stride, padding=padding)
    out.backward(grad_out)
    return out.data, tx.grad, tw.grad, tb.grad


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", CASES)
def test_float64_matches_single_gemm_oracle(case, layout):
    stride, padding = case[5], case[6]
    x, w, b, grad = draw(case, layout)
    with precision("float64"):
        ours = blocked_conv2d(x, w, b, stride, padding, grad)
    theirs = single_gemm_conv2d(x, w, b, stride, padding, grad)
    for name, a, e in zip(("out", "grad_x", "grad_w", "grad_b"), ours, theirs):
        assert a.dtype == np.float64
        assert a.shape == e.shape, name
        np.testing.assert_allclose(a, e, rtol=1e-10, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", CASES)
def test_float32_within_precision_of_float64(case, layout):
    """Max-norm relative error against a float64 evaluation of the same
    (float32-rounded) inputs.  Not elementwise: long weight-gradient sums
    that cancel to near zero carry absolute float32 rounding."""
    stride, padding = case[5], case[6]
    x, w, b, grad = (
        a.astype(np.float32) for a in draw(case, layout)
    )
    with precision("float32"):
        ours = blocked_conv2d(x, w, b, stride, padding, grad)
    theirs = single_gemm_conv2d(
        *(a.astype(np.float64) for a in (x, w, b)), stride, padding,
        grad.astype(np.float64),
    )
    for name, a, e in zip(("out", "grad_x", "grad_w", "grad_b"), ours, theirs):
        assert a.dtype == np.float32
        error = np.abs(a - e).max() / np.abs(e).max()
        assert error <= 1e-5, (name, error)


INPUT_GRAD_CASES = [
    (128, 1, 28, 16, 3, 1, 1),    # mnist_cnn conv1 at batch 128
    (128, 16, 14, 32, 3, 1, 1),   # mnist_cnn conv2 at batch 128
]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", INPUT_GRAD_CASES)
def test_input_gradient_with_frozen_weights(case, layout, dtype):
    """An attack pass: only the input takes a gradient, so the backward
    skips the column rebuild and runs the input-gradient path alone."""
    stride, padding = case[5], case[6]
    x, w, b, grad = draw(case, layout)
    with precision(dtype):
        tx = Tensor(x.astype(dtype), requires_grad=True)
        out = conv2d(
            tx, Tensor(w.astype(dtype)), Tensor(b.astype(dtype)),
            stride=stride, padding=padding,
        )
        out.backward(grad.astype(dtype))
    _, expected, _, _ = single_gemm_conv2d(
        *(a.astype(dtype).astype(np.float64) for a in (x, w, b)),
        stride, padding, grad.astype(dtype).astype(np.float64),
    )
    assert tx.grad.dtype == np.dtype(dtype)
    if dtype == "float64":
        np.testing.assert_allclose(tx.grad, expected, rtol=1e-10, atol=1e-12)
    else:
        error = np.abs(tx.grad - expected).max() / np.abs(expected).max()
        assert error <= 1e-5, error


def test_conv2_pass_holds_no_full_batch_columns():
    """Transient bytes of one conv2-shaped forward + backward at batch 128.

    Net of the arrays that escape (output and leaf gradients), what the pass
    holds is the saved padded input, the kernel's input gradient before the
    engine copies it into ``.grad``, and block-sized scratch.  The
    full-batch column matrix alone would be 28.9 MB.
    """
    x, w, b, grad = draw((128, 16, 14, 32, 3, 1, 1), "nhwc")
    padded_bytes = 128 * 16 * 16 * 16 * 8
    budget = padded_bytes + x.nbytes + 4 * ops_nn._BLOCK_BYTES
    clear_workspace()
    tracemalloc.start()
    try:
        with precision("float64"):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results = blocked_conv2d(x, w, b, 1, 1, grad)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_workspace()
    transient = peak - base - sum(a.nbytes for a in results)
    assert transient <= budget, (
        f"conv2 forward + backward held {transient / 2**20:.1f} MiB of "
        f"temporaries (budget {budget / 2**20:.1f} MiB)"
    )


def test_backward_twice_accumulates():
    """Nothing is recycled after a backward, so a second one over the same
    graph adds the same gradients again."""
    x, w, b, grad = draw((3, 2, 6, 4, 3, 1, 1), "nchw")
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv2d(tx, tw, Tensor(b), padding=1)
    out.backward(grad)
    first = (tx.grad.copy(), tw.grad.copy())
    out.backward(grad)
    np.testing.assert_allclose(tx.grad, 2 * first[0])
    np.testing.assert_allclose(tw.grad, 2 * first[1])


LANE_CASES = [
    (128, 1, 28, 16, 3, 1, 1),    # mnist_cnn conv1 at batch 128
    (128, 16, 14, 32, 3, 1, 1),   # mnist_cnn conv2 at batch 128
    (13, 16, 14, 32, 3, 1, 1),    # last block partial
    (1, 16, 14, 32, 3, 1, 1),     # one block: fewer blocks than lanes
]
# Which of (x, weight, bias) take a gradient: training (all), an attack
# pass (input only), conv1 on a clean batch (parameters only), ...
GRAD_MASKS = [
    mask for mask in itertools.product((False, True), repeat=3) if any(mask)
]


def conv_on_lanes(lanes, case, dtype, mask):
    """Output and the requested gradients of one conv on ``lanes`` lanes."""
    stride, padding = case[5], case[6]
    x, w, b, grad = (a.astype(dtype) for a in draw(case, "nhwc"))
    with precision(dtype), kernel_lanes(lanes):
        leaves = [
            Tensor(a, requires_grad=needs) for a, needs in zip((x, w, b), mask)
        ]
        out = conv2d(*leaves, stride=stride, padding=padding)
        out.backward(grad)
    grads = [leaf.grad for leaf, needs in zip(leaves, mask) if needs]
    return [out.data] + grads


@pytest.mark.parametrize("lanes", [2, 3])
@pytest.mark.parametrize("mask", GRAD_MASKS)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", LANE_CASES)
def test_results_do_not_depend_on_lane_count(case, dtype, mask, lanes):
    """Per-block outputs and per-block weight/bias partials summed in block
    order: every lane count computes the same bits."""
    serial = conv_on_lanes(1, case, dtype, mask)
    split = conv_on_lanes(lanes, case, dtype, mask)
    for a, e in zip(split, serial):
        assert a.dtype == e.dtype == np.dtype(dtype)
        assert np.array_equal(a, e)


def test_lane_error_waits_for_every_lane():
    """An exception in lane 1 reaches the caller only after lane 0, which
    may still be writing into the caller's arrays, has finished."""
    caller = threading.current_thread()
    finished = []

    def run(indices):
        if threading.current_thread() is not caller:
            raise RuntimeError("lane 1 failed")
        time.sleep(0.2)
        finished.append(list(indices))

    with kernel_lanes(2), pytest.raises(RuntimeError, match="lane 1"):
        _lanes.map_blocks(run, 4)
    assert finished == [[0, 1, 2, 3]]


def test_caller_error_waits_for_every_lane():
    """An exception in lane 0 (the caller) propagates after lane 1 ends."""
    caller = threading.current_thread()
    finished = []

    def run(indices):
        if threading.current_thread() is caller:
            raise RuntimeError("lane 0 failed")
        time.sleep(0.2)
        finished.append(list(indices))

    with kernel_lanes(2), pytest.raises(RuntimeError, match="lane 0"):
        _lanes.map_blocks(run, 4)
    assert finished == [[0, 1, 2, 3]]


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_every_block_runs_once(lanes):
    taken = []

    def run(indices):
        for i in indices:
            time.sleep(0.001)
            taken.append((i, threading.current_thread()))

    with kernel_lanes(lanes):
        _lanes.map_blocks(run, 8)
        _lanes.map_blocks(run, 3)
    assert sorted(i for i, _ in taken) == [0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7]
    # At most one lane per two blocks: 3 blocks run inline.
    assert len({thread for _, thread in taken[-3:]}) == 1


def test_lanes_drop_the_call_when_done():
    """Once ``map_blocks`` returns, no lane still holds the kernel's
    closure, so its batch-sized arrays do not outlive the call."""
    out = np.zeros(8)
    alive = weakref.ref(out)

    def run(indices, out=out):  # holds the array as a kernel's closure does
        for i in indices:
            time.sleep(0.001)
            out[i] = i

    with kernel_lanes(2):
        _lanes.map_blocks(run, 8)
    del run, out
    assert alive() is None


@pytest.mark.parametrize("blas", [1, 2])
def test_default_lanes_follow_blas_threads(blas):
    """By default the kernels run on one lane per usable CPU only while
    numpy's OpenBLAS runs one thread: lanes on top of a multi-threaded
    BLAS oversubscribe the cores."""
    library = _lanes._openblas()
    get_threads = getattr(library, "scipy_openblas_get_num_threads64_", None)
    if get_threads is None:
        pytest.skip("numpy is not built on scipy-openblas")
    set_threads = library.scipy_openblas_set_num_threads64_
    before = get_threads()
    set_threads(blas)
    try:
        with kernel_lanes(None):
            expected = _lanes._usable_cpus() if blas == 1 else 1
            assert _lanes.lane_count() == expected
        with kernel_lanes(2):  # a count set explicitly holds either way
            assert _lanes.lane_count() == 2
    finally:
        set_threads(before)
