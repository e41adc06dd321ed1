"""Microbenchmarks: core autograd/NN operation throughput.

Tracks the substrate performance the experiment costs rest on: forward and
forward+backward passes of the dense and convolutional models, plus the two
most expensive primitives (conv2d, matmul); conv2d and the 2x2 max-pool
also run forward + backward at mnist_cnn's two layer shapes each and batch
128, the configuration the experiments train at.

Every bench is parametrised over the runtime precision policy so a run
reports float32-vs-float64 throughput side by side (compare within each
``group`` in the pytest-benchmark table).  Inputs and models are built
inside ``precision(dtype)`` so weights, activations and gradients all
carry the policy dtype.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, conv2d, matmul, max_pool2d
from repro.autograd._im2col import im2col
from repro.models import mnist_cnn, mnist_mlp
from repro.nn import cross_entropy
from repro.runtime import compute_dtype, get_workspace, precision

DTYPES = ["float64", "float32"]


def image_batch(dtype):
    raw = np.random.default_rng(0).uniform(0, 1, size=(64, 1, 28, 28))
    return raw.astype(dtype)


def labels():
    return np.random.default_rng(1).integers(0, 10, size=64)


@pytest.mark.benchmark(group="ops-matmul")
@pytest.mark.parametrize("dtype", DTYPES)
def test_matmul_512(benchmark, dtype):
    with precision(dtype):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(512, 512)).astype(compute_dtype()))
        b = Tensor(rng.normal(size=(512, 512)).astype(compute_dtype()))
        benchmark(lambda: (a @ b).data)


@pytest.mark.benchmark(group="ops-conv2d")
@pytest.mark.parametrize("dtype", DTYPES)
def test_conv2d_forward(benchmark, dtype):
    with precision(dtype):
        x = Tensor(image_batch(dtype))
        w = Tensor(
            (np.random.default_rng(0).normal(size=(16, 1, 3, 3)) * 0.1)
            .astype(compute_dtype())
        )
        benchmark(lambda: conv2d(x, w, padding=1).data)


# mnist_cnn's two convolutions (input, weight) at the experiments' batch
# size; conv2's input arrives in NHWC memory, as the pool above it emits.
CNN_CONVS = {
    "conv1": ((128, 1, 28, 28), (16, 1, 3, 3)),
    "conv2": ((128, 16, 14, 14), (32, 16, 3, 3)),
}
# Inputs of mnist_cnn's two 2x2 max-pools at batch 128.
CNN_POOLS = {
    "pool1": (128, 16, 28, 28),
    "pool2": (128, 32, 14, 14),
}


def nhwc_memory(arr):
    """``arr`` (NCHW-shaped) as the NCHW view of NHWC memory."""
    return np.ascontiguousarray(arr.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.benchmark(group="ops-conv2d-pass")
@pytest.mark.parametrize("layer", list(CNN_CONVS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_conv2d_forward_backward_batch128(benchmark, dtype, layer):
    """One training pass of a mnist_cnn conv: forward, then the input,
    weight and bias gradients."""
    x_shape, w_shape = CNN_CONVS[layer]
    with precision(dtype):
        rng = np.random.default_rng(0)
        x = nhwc_memory(rng.uniform(0, 1, size=x_shape).astype(dtype))
        w = (rng.normal(size=w_shape) * 0.1).astype(dtype)
        b = np.zeros(w_shape[0], dtype)
        grad = nhwc_memory(
            rng.normal(size=(x_shape[0], w_shape[0], *x_shape[2:]))
            .astype(dtype)
        )

        def step():
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(w, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            conv2d(tx, tw, tb, padding=1).backward(grad)

        benchmark(step)


@pytest.mark.benchmark(group="ops-maxpool-pass")
@pytest.mark.parametrize("layer", list(CNN_POOLS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_max_pool_forward_backward_batch128(benchmark, dtype, layer):
    """One training pass of a mnist_cnn 2x2 max-pool: forward, then the
    input gradient."""
    n, c, h, w = CNN_POOLS[layer]
    with precision(dtype):
        rng = np.random.default_rng(0)
        x = nhwc_memory(rng.normal(size=(n, c, h, w)).astype(dtype))
        grad = nhwc_memory(
            rng.normal(size=(n, c, h // 2, w // 2)).astype(dtype)
        )

        def step():
            tx = Tensor(x, requires_grad=True)
            max_pool2d(tx, 2).backward(grad)

        benchmark(step)


@pytest.mark.benchmark(group="ops-loss")
@pytest.mark.parametrize("dtype", DTYPES)
def test_cross_entropy_forward_backward(benchmark, dtype):
    """Fused softmax-CE node, forward + backward."""
    with precision(dtype):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(512, 10)).astype(compute_dtype())
        y = rng.integers(0, 10, size=512)

        def step():
            t = Tensor(logits, requires_grad=True)
            cross_entropy(t, y).backward()

        benchmark(step)


@pytest.mark.benchmark(group="ops-im2col")
@pytest.mark.parametrize("dtype", DTYPES)
def test_im2col_3x3_padded(benchmark, dtype):
    """sliding_window_view + workspace gather of a padded 3x3 window."""
    x = image_batch(dtype)
    workspace = get_workspace()

    def gather():
        workspace.release(im2col(x, 3, 3, 1, 1))

    benchmark(gather)


@pytest.mark.benchmark(group="model-forward")
@pytest.mark.parametrize("dtype", DTYPES)
def test_mlp_forward(benchmark, dtype):
    with precision(dtype):
        model = mnist_mlp(seed=0)
        x = Tensor(image_batch(dtype))
        benchmark(lambda: model(x).data)


@pytest.mark.benchmark(group="model-pass")
@pytest.mark.parametrize("dtype", DTYPES)
def test_mlp_forward_backward(benchmark, dtype):
    with precision(dtype):
        model = mnist_mlp(seed=0)
        x, y = image_batch(dtype), labels()

        def step():
            model.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            loss.backward()

        benchmark(step)


@pytest.mark.benchmark(group="model-pass")
@pytest.mark.parametrize("dtype", DTYPES)
def test_cnn_forward_backward(benchmark, dtype):
    with precision(dtype):
        model = mnist_cnn(seed=0)
        x, y = image_batch(dtype), labels()

        def step():
            model.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            loss.backward()

        benchmark.pedantic(step, rounds=3, iterations=1)
