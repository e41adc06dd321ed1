"""Shared fixtures for the test suite.

Expensive objects (datasets, a lightly trained model) are session-scoped so
the several-hundred-test suite stays fast.
"""

import numpy as np
import pytest

from repro.data import DataLoader, load_dataset
from repro.defenses import Trainer
from repro.models import mnist_mlp, small_cnn
from repro.optim import Adam


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def digits_small():
    """Tiny digit split: 20 train / 10 test per class."""
    return load_dataset("digits", train_per_class=20, test_per_class=10, seed=0)


@pytest.fixture(scope="session")
def fashion_small():
    """Tiny fashion split: 20 train / 10 test per class."""
    return load_dataset(
        "fashion", train_per_class=20, test_per_class=10, seed=0
    )


@pytest.fixture(scope="session")
def digits_arrays(digits_small):
    train, test = digits_small
    return train.arrays() + test.arrays()


@pytest.fixture(scope="session")
def trained_mlp(digits_small):
    """An MLP trained briefly on the tiny digit set (high clean accuracy)."""
    train, _test = digits_small
    model = mnist_mlp(seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=2e-3))
    trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=10)
    return model


@pytest.fixture(scope="session")
def undefended_bim_accuracy(digits_small):
    """``measure(epochs)``: BIM(5) accuracy at eps 0.2 on the tiny test
    split of an undefended ``mnist_mlp(seed=0)`` trained with the defense
    tests' recipe (Adam lr 2e-3, batch 64, loader rng 0).  The defended
    robustness tests assert a margin over this baseline."""
    from repro.attacks import BIM

    train, test = digits_small
    x, y = test.arrays()
    cache = {}

    def measure(epochs: int) -> float:
        if epochs not in cache:
            model = mnist_mlp(seed=0)
            trainer = Trainer(model, Adam(model.parameters(), lr=2e-3))
            trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=epochs)
            x_adv = BIM(model, 0.2, num_steps=5).generate(x, y)
            cache[epochs] = float((model.predict(x_adv) == y).mean())
        return cache[epochs]

    return measure


@pytest.fixture
def fresh_mlp():
    """Untrained MLP with a fixed seed."""
    return mnist_mlp(seed=0)


@pytest.fixture
def tiny_batch(digits_small):
    """A small (x, y) batch from the tiny test split."""
    _train, test = digits_small
    x, y = test.arrays()
    return x[:16], y[:16]
