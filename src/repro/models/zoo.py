"""Model factories used across experiments.

All factories take a ``seed`` so that the paper's protocol — "train four
different NN classifiers with the same structure and hyper-parameter
setting" — is reproducible: same seed, same initial weights.
"""

from __future__ import annotations

from ..nn import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ReLU,
    Sequential,
)
from ..utils.rng import ensure_rng, spawn_rngs
from .classifier import FeatureClassifier

__all__ = ["mnist_cnn", "mnist_mlp", "small_cnn", "MODEL_BUILDERS", "build_model"]


def mnist_cnn(
    num_classes: int = 10,
    in_channels: int = 1,
    image_size: int = 28,
    seed: int = 0,
) -> FeatureClassifier:
    """Small ConvNet matching the depth class of the paper's MNIST nets.

    conv3x3(16) - maxpool2 - ReLU - conv3x3(32) - maxpool2 - ReLU -
    flatten - dense(128) - ReLU - dense(num_classes)

    Each ReLU follows its max-pool: the two commute exactly (ReLU is
    monotone, and an all-negative window maps to zero either way), so the
    function and every gradient are those of conv - ReLU - pool, while the
    ReLU runs on a quarter of the elements.  Parameters keep the names
    ``features.0/3/7`` of that order.
    """
    rngs = spawn_rngs(ensure_rng(seed), 4)
    pooled = image_size // 4
    features = Sequential(
        Conv2d(in_channels, 16, kernel_size=3, padding=1, rng=rngs[0]),
        MaxPool2d(2),
        ReLU(),
        Conv2d(16, 32, kernel_size=3, padding=1, rng=rngs[1]),
        MaxPool2d(2),
        ReLU(),
        Flatten(),
        Dense(32 * pooled * pooled, 128, rng=rngs[2]),
        ReLU(),
    )
    head = Dense(128, num_classes, rng=rngs[3])
    return FeatureClassifier(features, head, num_classes)


def mnist_mlp(
    num_classes: int = 10,
    in_channels: int = 1,
    image_size: int = 28,
    seed: int = 0,
    hidden: int = 256,
) -> FeatureClassifier:
    """MLP baseline: flatten - dense(hidden) - ReLU - dense(hidden/2) - ReLU."""
    rngs = spawn_rngs(ensure_rng(seed), 3)
    input_dim = in_channels * image_size * image_size
    features = Sequential(
        Flatten(),
        Dense(input_dim, hidden, rng=rngs[0]),
        ReLU(),
        Dense(hidden, hidden // 2, rng=rngs[1]),
        ReLU(),
    )
    head = Dense(hidden // 2, num_classes, rng=rngs[2])
    return FeatureClassifier(features, head, num_classes)


def small_cnn(
    num_classes: int = 10,
    in_channels: int = 1,
    image_size: int = 28,
    seed: int = 0,
) -> FeatureClassifier:
    """Tiny ConvNet for fast tests: one conv block plus a small dense stack.

    conv3x3(8) - maxpool2 - ReLU - flatten - dense(32) - ReLU -
    dense(num_classes); the ReLU follows the pool as in :func:`mnist_cnn`.
    """
    rngs = spawn_rngs(ensure_rng(seed), 3)
    pooled = image_size // 2
    features = Sequential(
        Conv2d(in_channels, 8, kernel_size=3, padding=1, rng=rngs[0]),
        MaxPool2d(2),
        ReLU(),
        Flatten(),
        Dense(8 * pooled * pooled, 32, rng=rngs[1]),
        ReLU(),
    )
    head = Dense(32, num_classes, rng=rngs[2])
    return FeatureClassifier(features, head, num_classes)


MODEL_BUILDERS = {
    "mnist_cnn": mnist_cnn,
    "mnist_mlp": mnist_mlp,
    "small_cnn": small_cnn,
}


def build_model(name: str, **kwargs) -> FeatureClassifier:
    """Instantiate a model factory by name."""
    if name not in MODEL_BUILDERS:
        raise KeyError(
            f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}"
        )
    return MODEL_BUILDERS[name](**kwargs)
