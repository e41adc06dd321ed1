"""Tests for the model zoo."""

import hashlib

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
from repro.nn import MaxPool2d, ReLU, Sequential, cross_entropy
from repro.runtime import precision


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


def conv_relu_pool(model):
    """``model`` rebuilt in conv - ReLU - pool order around the same layer
    objects (so the same parameters)."""
    layers = list(model.features)
    pools = [i for i, layer in enumerate(layers) if isinstance(layer, MaxPool2d)]
    for i in pools:
        # The zoo's order is conv - pool - ReLU: swap each pool with the
        # ReLU after it.
        assert isinstance(layers[i + 1], ReLU)
        layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return FeatureClassifier(Sequential(*layers), model.head, model.num_classes)


def commutation_batch(dtype):
    """Random, constant (every pool window ties) and negative images, so
    conv maps hold ties and all-negative windows."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(8, 1, 28, 28))
    x[1] = 0.0
    x[2] = 1.0
    x[3] = -1.0
    x[4] = -np.abs(x[4])
    x[5, :, ::2] = 0.5
    return x.astype(dtype), rng.integers(0, 10, size=8)


class TestReluAfterPool:
    @pytest.mark.parametrize("factory", [mnist_cnn, small_cnn])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_exactly_commutes_with_conv_relu_pool(self, factory, dtype):
        """Max-pool and ReLU commute: logits, the input gradient and every
        parameter gradient equal the conv - ReLU - pool network's."""
        with precision(dtype):
            model = factory(seed=0)
            reference = conv_relu_pool(model)
            x, y = commutation_batch(dtype)
            results = []
            for net in (model, reference):
                net.zero_grad()
                inp = Tensor(x, requires_grad=True)
                logits = net(inp)
                cross_entropy(logits, y).backward()
                results.append(
                    [logits.data, inp.grad]
                    + [p.grad.copy() for p in net.parameters()]
                )
        for ours, theirs in zip(*results):
            assert ours.dtype == np.dtype(dtype)
            assert np.array_equal(ours, theirs)

    def test_parameter_names_unchanged(self):
        """Checkpoints saved from the conv - ReLU - pool order still load."""
        assert list(mnist_cnn(seed=0).state_dict()) == [
            f"features.{i}.{p}" for i in (0, 3, 7) for p in ("weight", "bias")
        ] + ["head.weight", "head.bias"]
        assert list(small_cnn(seed=0).state_dict()) == [
            f"features.{i}.{p}" for i in (0, 4) for p in ("weight", "bias")
        ] + ["head.weight", "head.bias"]


# sha256 of ``factory(seed=0).state_dict()`` (name, dtype, shape and bytes
# of every entry, in order).  Table I trains these exact initial weights,
# so a refactor of the zoo, ``Dense``, ``Conv2d``, ``nn.init`` or
# ``Module`` must leave them unchanged.
WEIGHT_FINGERPRINTS = {
    ("float32", "mnist_mlp"): "57f931604f4fdb9d9e5f76236a1ef5ae6c735a98f1325a8c89d353bafaa44c5a",
    ("float32", "mnist_cnn"): "0c89e2614777214741efccb30027b5cf08a00530e2ff76f73a87f3c0b50ba5ec",
    ("float32", "small_cnn"): "ee6b0255a0e2077649c2090e308f9ba90739a4b74c0c4ddd69981ad165f75585",
    ("float64", "mnist_mlp"): "f6e6d8529e56926f4546bc773d461797a8cf7c12c58b5b0fb5b53faeba1fe4d6",
    ("float64", "mnist_cnn"): "3d4e3cc8ac3118bfd735601ea098b6a4997984ddc9a00194465f474e08e0ca27",
    ("float64", "small_cnn"): "b2c08c27a10b5e16719c2fd7ad4708a90f27d6e18ea7ed5662f4db22e20e6ace",
}


@pytest.mark.parametrize("dtype, name", sorted(WEIGHT_FINGERPRINTS))
def test_initial_weights_fingerprint(dtype, name):
    with precision(dtype):
        state = build_model(name, seed=0).state_dict()
    digest = hashlib.sha256()
    for key, value in state.items():
        digest.update(key.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    assert digest.hexdigest() == WEIGHT_FINGERPRINTS[dtype, name]


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
