"""Input-validation helpers shared across the library.

Raising early with a precise message is preferred over letting numpy
broadcast errors surface deep inside the autograd engine.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "check_positive",
    "check_in_unit_interval",
    "check_image_batch",
    "check_labels",
]


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_in_unit_interval(name: str, value) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def check_image_batch(x: np.ndarray) -> Tuple[int, int, int, int]:
    """Validate an NCHW image batch and return its shape."""
    arr = np.asarray(x)
    if arr.ndim != 4:
        raise ValueError(
            f"expected NCHW batch with 4 dimensions, got shape {arr.shape}"
        )
    return arr.shape


def check_labels(y: np.ndarray, num_classes: int) -> np.ndarray:
    """Validate integer class labels against ``num_classes``."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.any(arr != arr.astype(np.int64)):
            raise ValueError("labels must be integers")
        arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return arr
