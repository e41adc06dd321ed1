"""Microbenchmarks: core autograd/NN operation throughput.

Tracks the substrate performance the experiment costs rest on: forward and
forward+backward passes of the dense and convolutional models, plus the two
most expensive primitives (conv2d, matmul).

Every bench is parametrised over the runtime precision policy so a run
reports float32-vs-float64 throughput side by side (compare within each
``group`` in the pytest-benchmark table).  Inputs and models are built
inside ``precision(dtype)`` so weights, activations and gradients all
carry the policy dtype.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, conv2d, matmul
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
        model.eval()
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
