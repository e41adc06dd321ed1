"""Tests for NN operations: matmul, activations, log-softmax, conv, pooling."""

import itertools

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    check_gradients,
    conv2d,
    leaky_relu,
    log_softmax,
    max_pool2d,
    relu,
    sigmoid,
    tanh,
)
from repro.autograd._im2col import col2im, conv_output_size, im2col
from repro.runtime import precision
from tests.helpers import in_layout


def randn(*shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(size=shape) * scale)


# Memory layouts an NCHW-shaped image can arrive in: C-contiguous NCHW, or
# the NCHW view of NHWC memory that conv and pool outputs are.
LAYOUTS = ["nchw", "nhwc"]
DTYPES = ["float64", "float32"]


def randn_in(layout, *shape, seed=0, scale=1.0):
    return Tensor(in_layout(randn(*shape, seed=seed, scale=scale).data, layout))


def assert_nhwc_memory(arr):
    """Conv/pool results are NCHW-shaped views of C-contiguous NHWC memory."""
    assert arr.transpose(0, 2, 3, 1).flags.c_contiguous


def tol(dtype):
    return {"rtol": 1e-5, "atol": 1e-5} if dtype == "float32" else {}


def naive_pool(x, kernel, stride, padding, reduce):
    """Loop reference for max/avg pooling (max pads with -inf, avg with 0)."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    fill = -np.inf if reduce is np.max else 0.0
    xp = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        constant_values=fill,
    )
    out = np.empty((n, c, out_h, out_w))
    for y in range(out_h):
        for z in range(out_w):
            window = xp[
                :, :, y * stride : y * stride + kernel,
                z * stride : z * stride + kernel,
            ]
            out[:, :, y, z] = reduce(window, axis=(2, 3))
    return out


# (kernel, stride, padding): 2x2 tiles, 3x3 tiles, overlapping, padded.
POOL_CASES = [(2, 2, 0), (3, 3, 0), (2, 1, 0), (3, 2, 1)]


def naive_conv2d(x, w, b, stride, padding):
    """Straightforward loop reference implementation of conv2d."""
    n, c_in, h, wdt = x.shape
    c_out, _, kh, kw = w.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (wdt + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(n):
        for o in range(c_out):
            for y in range(out_h):
                for z in range(out_w):
                    patch = xp[
                        i, :, y * stride : y * stride + kh,
                        z * stride : z * stride + kw,
                    ]
                    out[i, o, y, z] = (patch * w[o]).sum() + (
                        b[o] if b is not None else 0.0
                    )
    return out


class TestMatmul:
    def test_forward(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        b = np.random.default_rng(1).normal(size=(4, 2))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_gradients(self):
        check_gradients(
            lambda a, b: a @ b, [randn(3, 4), randn(4, 2, seed=1)]
        )

    def test_batched(self):
        a = randn(2, 3, 4)
        b = randn(2, 4, 5, seed=1)
        assert (a @ b).shape == (2, 3, 5)
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_broadcast_batched(self):
        check_gradients(
            lambda x, y: x @ y, [randn(2, 3, 4), randn(4, 5, seed=1)]
        )


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        relu(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_leaky_relu(self):
        out = leaky_relu(Tensor(np.array([-2.0, 2.0])), negative_slope=0.1)
        assert np.allclose(out.data, [-0.2, 2.0])
        check_gradients(
            lambda a: leaky_relu(a, negative_slope=0.1),
            [randn(4, seed=3) + 0.3],
        )

    def test_sigmoid_values_and_grad(self):
        assert np.isclose(sigmoid(Tensor([0.0])).item(), 0.5)
        check_gradients(lambda a: sigmoid(a), [randn(5)])

    def test_tanh_values_and_grad(self):
        assert np.isclose(tanh(Tensor([0.0])).item(), 0.0)
        check_gradients(lambda a: tanh(a), [randn(5)])


class TestSoftmax:
    def test_log_softmax_matches_log_of_softmax(self):
        x = randn(3, 5)
        exp = np.exp(x.data)
        softmax = exp / exp.sum(axis=-1, keepdims=True)
        assert np.allclose(log_softmax(x).data, np.log(softmax))

    def test_log_softmax_gradients(self):
        check_gradients(lambda a: log_softmax(a), [randn(3, 5)])


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        theirs = naive_conv2d(x, w, b, stride, padding)
        for layout, dtype in itertools.product(LAYOUTS, DTYPES):
            ours = conv2d(
                Tensor(in_layout(x.astype(dtype), layout)),
                Tensor(w.astype(dtype)), Tensor(b.astype(dtype)),
                stride=stride, padding=padding,
            ).data
            assert ours.dtype == np.dtype(dtype)
            assert_nhwc_memory(ours)
            assert np.allclose(ours, theirs, **tol(dtype)), (layout, dtype)

    def test_no_bias(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(3, 2, 3, 3))
        ours = conv2d(Tensor(x), Tensor(w)).data
        theirs = naive_conv2d(x, w, None, 1, 0)
        assert np.allclose(ours, theirs)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(randn(1, 2, 4, 4), randn(3, 5, 3, 3))

    def test_gradients(self):
        for layout in LAYOUTS:
            check_gradients(
                lambda x, w, b: conv2d(x, w, b, stride=1, padding=1),
                [randn_in(layout, 2, 2, 5, 5),
                 randn(3, 2, 3, 3, seed=1, scale=0.5), randn(3, seed=2)],
            )

    def test_gradients_strided(self):
        for layout in LAYOUTS:
            check_gradients(
                lambda x, w: conv2d(x, w, stride=2),
                [randn_in(layout, 1, 2, 6, 6),
                 randn(2, 2, 2, 2, seed=1, scale=0.5)],
            )

    def test_gradients_wide_input(self):
        """A wide column matrix: C_in * k^2 = 72 columns per row."""
        for layout in LAYOUTS:
            check_gradients(
                lambda x, w: conv2d(x, w, stride=1, padding=1),
                [randn_in(layout, 1, 8, 4, 4),
                 randn(2, 8, 3, 3, seed=1, scale=0.5)],
            )

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("c_in", [2, 8])
    def test_float32_backward_matches_float64(self, layout, c_in):
        """Both dtypes, narrow and wide column matrices; the input gradient
        comes back in NHWC memory, the weight gradient C-contiguous."""
        grads = {}
        for dtype in DTYPES:
            with precision(dtype):
                x = randn_in(layout, 2, c_in, 6, 6)
                x = Tensor(x.data.astype(dtype), requires_grad=True)
                w = Tensor(randn(3, c_in, 3, 3, seed=1).data.astype(dtype),
                           requires_grad=True)
                b = Tensor(np.arange(3.0, dtype=dtype), requires_grad=True)
                out = conv2d(x, w, b, padding=1)
                out.backward(np.cos(np.arange(out.size)).reshape(out.shape))
                assert_nhwc_memory(x.grad)
                assert w.grad.flags.c_contiguous
                grads[dtype] = (x.grad, w.grad, b.grad)
        for g32, g64 in zip(grads["float32"], grads["float64"]):
            assert g32.dtype == np.float32
            assert np.allclose(g32, g64, rtol=1e-4, atol=1e-4)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kernel,stride,padding", POOL_CASES)
    @pytest.mark.parametrize("pool,reduce", [
        (max_pool2d, np.max), (avg_pool2d, np.mean),
    ])
    def test_matches_naive_reference(
        self, pool, reduce, kernel, stride, padding, layout, dtype
    ):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6))
        ours = pool(
            Tensor(in_layout(x.astype(dtype), layout)),
            kernel_size=kernel, stride=stride, padding=padding,
        ).data
        assert ours.dtype == np.dtype(dtype)
        assert_nhwc_memory(ours)
        theirs = naive_pool(x, kernel, stride, padding, reduce)
        assert np.allclose(ours, theirs, **tol(dtype))

    def test_max_pool_gradients(self):
        for (kernel, stride, padding), layout in itertools.product(
            POOL_CASES, LAYOUTS
        ):
            check_gradients(
                lambda a: max_pool2d(a, kernel, stride=stride, padding=padding),
                [randn_in(layout, 2, 3, 6, 6)],
            )

    def test_avg_pool_gradients(self):
        for (kernel, stride, padding), layout in itertools.product(
            POOL_CASES, LAYOUTS
        ):
            check_gradients(
                lambda a: avg_pool2d(a, kernel, stride=stride, padding=padding),
                [randn_in(layout, 2, 3, 6, 6)],
            )

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kernel,stride,padding", POOL_CASES)
    @pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
    def test_float32_backward_matches_float64(
        self, pool, kernel, stride, padding, layout
    ):
        grads = {}
        for dtype in DTYPES:
            with precision(dtype):
                x = randn_in(layout, 2, 3, 6, 6)
                x = Tensor(x.data.astype(dtype), requires_grad=True)
                out = pool(x, kernel, stride=stride, padding=padding)
                out.backward(np.cos(np.arange(out.size)).reshape(out.shape))
                assert_nhwc_memory(x.grad)
                grads[dtype] = x.grad
        assert grads["float32"].dtype == np.float32
        assert np.allclose(grads["float32"], grads["float64"], atol=1e-6)

    def test_max_pool_stride(self):
        out = max_pool2d(randn(1, 1, 6, 6), kernel_size=3, stride=3)
        assert out.shape == (1, 1, 2, 2)

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            max_pool2d(randn(1, 1, 2, 2), kernel_size=5)

    def test_max_pool_padding_all_negative_input(self):
        """Padding cells must never win the argmax.

        With zero-filled padding, a window of strictly negative activations
        would report 0 (the pad value) as its max and route gradient into
        the void; the pad must act as -inf instead.
        """
        x = Tensor(
            np.full((1, 1, 2, 2), -3.0), requires_grad=True
        )
        out = max_pool2d(x, kernel_size=2, stride=2, padding=1)
        assert np.allclose(out.data, -3.0)
        out.backward(np.ones_like(out.data))
        # Each input cell is the max of exactly one window.
        assert np.allclose(x.grad, 1.0)

    def test_max_pool_padding_gradients(self):
        check_gradients(
            lambda a: max_pool2d(a, kernel_size=2, padding=1),
            [randn(2, 2, 4, 4)],
        )


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self):
        """col2im of all-ones must count each pixel's window membership."""
        x = np.ones((1, 1, 4, 4))
        cols = im2col(x, 3, 3, 1, 0)
        back = col2im(cols, x.shape, 3, 3, 1, 0)
        # Centre pixels belong to 4 windows; corners to 1.
        assert back[0, 0, 0, 0] == 1.0
        assert back[0, 0, 1, 1] == 4.0

    def test_output_size(self):
        assert conv_output_size(28, 3, 1, 1) == 28
        assert conv_output_size(28, 2, 2, 0) == 14

    def test_output_size_invalid(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_im2col_shape(self):
        cols = im2col(np.zeros((2, 3, 5, 5)), 3, 3, 1, 1)
        assert cols.shape == (2 * 5 * 5, 3 * 3 * 3)
