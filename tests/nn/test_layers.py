"""Tests for the layer zoo (dense, conv, pooling, activations, shape)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dense,
    Flatten,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Tanh,
)


def randn(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestDense:
    def test_output_shape(self):
        assert Dense(4, 7, rng=0)(randn(5, 4)).shape == (5, 7)

    def test_affine_math(self):
        layer = Dense(2, 2, rng=0)
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.bias.data = np.array([1.0, -1.0])
        out = layer(Tensor(np.array([[3.0, 4.0]])))
        assert np.allclose(out.data, [[4.0, 7.0]])

    def test_no_bias(self):
        layer = Dense(3, 2, bias=False, rng=0)
        assert layer.bias is None
        names = dict(layer.named_parameters()).keys()
        assert names == {"weight"}

    def test_wrong_input_dim_raises(self):
        with pytest.raises(ValueError, match="last dim"):
            Dense(4, 2, rng=0)(randn(3, 5))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)

    def test_seeded_init_deterministic(self):
        a, b = Dense(4, 4, rng=7), Dense(4, 4, rng=7)
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_gradients_reach_parameters(self):
        layer = Dense(3, 2, rng=0)
        layer(randn(4, 3)).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestConv2d:
    def test_output_shape(self):
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=0)
        assert layer(randn(2, 3, 10, 10)).shape == (2, 8, 10, 10)

    def test_stride(self):
        layer = Conv2d(1, 2, kernel_size=2, stride=2, rng=0)
        assert layer(randn(1, 1, 8, 8)).shape == (1, 2, 4, 4)

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError, match="channels"):
            Conv2d(3, 4, kernel_size=3, rng=0)(randn(1, 2, 8, 8))

    def test_non_nchw_raises(self):
        with pytest.raises(ValueError):
            Conv2d(1, 2, kernel_size=3, rng=0)(randn(8, 8))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=3, padding=-1)

    def test_no_bias(self):
        layer = Conv2d(1, 2, kernel_size=3, bias=False, rng=0)
        assert layer.bias is None


class TestPoolingLayers:
    def test_max_pool_shape(self):
        assert MaxPool2d(2)(randn(1, 2, 8, 8)).shape == (1, 2, 4, 4)

    def test_avg_pool_shape(self):
        assert AvgPool2d(4)(randn(1, 2, 8, 8)).shape == (1, 2, 2, 2)

    def test_stride_defaults_to_kernel(self):
        assert MaxPool2d(3).stride == 3

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            MaxPool2d(0)


class TestActivationLayers:
    @pytest.mark.parametrize(
        "layer", [ReLU(), LeakyReLU(0.2), Sigmoid(), Tanh()]
    )
    def test_preserves_shape(self, layer):
        assert layer(randn(3, 5)).shape == (3, 5)

    def test_relu_clamps(self):
        assert ReLU()(Tensor([-1.0, 1.0])).data.min() == 0.0


class TestShapeLayers:
    def test_flatten(self):
        assert Flatten()(randn(2, 3, 4, 5)).shape == (2, 60)

    def test_reshape(self):
        assert Reshape(4, 5)(randn(2, 20)).shape == (2, 4, 5)


class TestSequential:
    def test_chains(self):
        net = Sequential(Dense(4, 8, rng=0), ReLU(), Dense(8, 2, rng=1))
        assert net(randn(3, 4)).shape == (3, 2)

    def test_len_iter_getitem(self):
        net = Sequential(ReLU(), Tanh())
        assert len(net) == 2
        assert isinstance(net[1], Tanh)
        assert [type(m) for m in net] == [ReLU, Tanh]

    def test_append(self):
        net = Sequential()
        net.append(ReLU())
        assert len(net) == 1

    def test_rejects_non_module(self):
        with pytest.raises(TypeError):
            Sequential(lambda x: x)
