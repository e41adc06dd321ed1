"""Tests for the model zoo."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import (
    FeatureClassifier,
    MODEL_BUILDERS,
    build_model,
    mnist_cnn,
    mnist_mlp,
    small_cnn,
)


def batch(n=4, size=28, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=(n, 1, size, size))


class TestFactories:
    @pytest.mark.parametrize("factory", [mnist_cnn, mnist_mlp, small_cnn])
    def test_logit_shape(self, factory):
        model = factory(seed=0)
        out = model(Tensor(batch()))
        assert out.shape == (4, 10)

    @pytest.mark.parametrize("factory", [mnist_cnn, mnist_mlp, small_cnn])
    def test_embedding_2d(self, factory):
        model = factory(seed=0)
        emb = model.embed(Tensor(batch()))
        assert emb.ndim == 2
        assert emb.shape[0] == 4

    def test_seed_determinism(self):
        a, b = mnist_mlp(seed=3), mnist_mlp(seed=3)
        assert np.array_equal(
            a.head.weight.data, b.head.weight.data
        )

    def test_different_seeds_differ(self):
        a, b = mnist_mlp(seed=1), mnist_mlp(seed=2)
        assert not np.array_equal(a.head.weight.data, b.head.weight.data)

    def test_custom_classes(self):
        model = mnist_mlp(num_classes=5, seed=0)
        assert model(Tensor(batch())).shape == (4, 5)

    def test_custom_image_size(self):
        model = small_cnn(image_size=14, seed=0)
        assert model(Tensor(batch(size=14))).shape == (4, 10)

    def test_cnn_parameter_grads_are_c_contiguous(self):
        """The conv kernels work in NHWC memory; the gradients they hand
        to the optimiser must still be plain C-contiguous arrays."""
        from repro.nn import losses

        model = mnist_cnn(seed=0)
        x = Tensor(batch(), requires_grad=True)
        logits = model(x)
        losses.softmax_cross_entropy(logits, np.arange(4)).backward()
        for param in model.parameters():
            assert param.grad.shape == param.data.shape
            assert param.grad.flags.c_contiguous

    def test_mlp_dropout_variant(self):
        model = mnist_mlp(seed=0, dropout=0.5)
        model.train()
        out1 = model(Tensor(batch())).data
        out2 = model(Tensor(batch())).data
        assert not np.array_equal(out1, out2)  # dropout active
        model.eval()
        out3 = model(Tensor(batch())).data
        out4 = model(Tensor(batch())).data
        assert np.array_equal(out3, out4)


class TestRegistry:
    def test_build_by_name(self):
        model = build_model("small_cnn", seed=0)
        assert isinstance(model, FeatureClassifier)

    def test_all_registered_buildable(self):
        for name in MODEL_BUILDERS:
            assert build_model(name, seed=0).num_classes == 10

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            build_model("resnet152")
