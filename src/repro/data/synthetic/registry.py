"""Dataset registry: build train/test splits by name.

The experiments refer to datasets by the paper's names; this registry maps
them onto the synthetic substitutes with fixed, disjoint seeds for train and
test splits.
"""

from __future__ import annotations

from typing import Tuple

from ..dataset import TensorDataset
from .digits import SyntheticDigits, render_digits
from .fashion import SyntheticFashion, render_fashion_batch

__all__ = [
    "BATCH_RENDERERS",
    "DATASET_BUILDERS",
    "load_dataset",
    "load_test_split",
    "dataset_epsilon",
    "dataset_num_classes",
    "batch_renderer",
]

# Per-dataset total perturbation budgets used throughout the experiments.
# The paper used 0.3 (MNIST) and 0.2 (Fashion-MNIST); the synthetic
# substitutes are calibrated to 0.25 / 0.15 so that the same qualitative
# regime holds: iterative adversarial training achieves substantial robust
# accuracy while single-step FGSM training is defeated by iterative attacks
# (see DESIGN.md, "Substitutions").
_EPSILONS = {
    "digits": 0.25,   # paper: MNIST, eps = 0.3
    "fashion": 0.15,  # paper: Fashion-MNIST, eps = 0.2
}

# Offsets keep train and test generation streams disjoint.
_TEST_SEED_OFFSET = 10_000


def _build_digits(num_per_class: int, seed: int) -> TensorDataset:
    return SyntheticDigits(num_per_class=num_per_class, seed=seed)


def _build_fashion(num_per_class: int, seed: int) -> TensorDataset:
    return SyntheticFashion(num_per_class=num_per_class, seed=seed)


DATASET_BUILDERS = {
    "digits": _build_digits,
    "fashion": _build_fashion,
}

# Batch render functions ``(labels, rng, size=..., out=..., **kw) ->
# (n, size, size)`` used by the streaming
# :class:`repro.data.source.SyntheticSource` to regenerate shards on the
# fly instead of materialising a full dataset.
BATCH_RENDERERS = {
    "digits": render_digits,
    "fashion": render_fashion_batch,
}

_NUM_CLASSES = {"digits": 10, "fashion": 10}


def dataset_num_classes(name: str) -> int:
    """Number of classes of a registered paper dataset."""
    if name not in _NUM_CLASSES:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(_NUM_CLASSES)}"
        )
    return _NUM_CLASSES[name]


def batch_renderer(name: str):
    """The batch render function backing a streaming source."""
    if name not in BATCH_RENDERERS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from "
            f"{sorted(BATCH_RENDERERS)}"
        )
    return BATCH_RENDERERS[name]


def dataset_epsilon(name: str) -> float:
    """Total l_inf perturbation budget the paper uses for this dataset."""
    if name not in _EPSILONS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(_EPSILONS)}"
        )
    return _EPSILONS[name]


def load_dataset(
    name: str,
    train_per_class: int = 200,
    test_per_class: int = 50,
    seed: int = 0,
) -> Tuple[TensorDataset, TensorDataset]:
    """Build ``(train, test)`` datasets for a paper dataset name.

    Parameters
    ----------
    name:
        ``"digits"`` (MNIST substitute) or ``"fashion"`` (Fashion-MNIST
        substitute).
    train_per_class, test_per_class:
        Per-class sizes of the two splits.
    seed:
        Base seed; the test split uses a disjoint generation stream.
    """
    if name not in DATASET_BUILDERS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}"
        )
    builder = DATASET_BUILDERS[name]
    train = builder(train_per_class, seed)
    return train, load_test_split(name, test_per_class, seed)


def load_test_split(
    name: str, test_per_class: int = 50, seed: int = 0
) -> TensorDataset:
    """Build only the held-out test split of a paper dataset.

    Streaming experiments regenerate the *training* stream on the fly
    (:class:`repro.data.source.SyntheticSource`) but still evaluate on a
    small materialised test set; this builds exactly the test split
    :func:`load_dataset` would return, without generating the training
    examples.
    """
    if name not in DATASET_BUILDERS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}"
        )
    return DATASET_BUILDERS[name](test_per_class, seed + _TEST_SEED_OFFSET)
