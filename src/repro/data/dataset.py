"""Dataset abstractions.

A dataset is an indexable collection of ``(example, label)`` pairs.  The
concrete synthetic datasets live in :mod:`repro.data.synthetic`; this module
provides the abstract base and the in-memory container they build on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["Dataset", "TensorDataset"]


class Dataset:
    """Abstract indexable dataset."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialise the whole dataset as ``(examples, labels)`` arrays."""
        examples = []
        labels = []
        for i in range(len(self)):
            x, y = self[i]
            examples.append(x)
            labels.append(y)
        return np.stack(examples), np.asarray(labels)


class TensorDataset(Dataset):
    """Dataset backed by in-memory arrays.

    Parameters
    ----------
    examples:
        Array whose first axis indexes examples (e.g. ``(N, C, H, W)``).
    labels:
        Integer labels of shape ``(N,)``.
    """

    def __init__(self, examples: np.ndarray, labels: np.ndarray) -> None:
        examples = np.asarray(examples)
        labels = np.asarray(labels)
        if len(examples) != len(labels):
            raise ValueError(
                f"examples and labels disagree on length: "
                f"{len(examples)} vs {len(labels)}"
            )
        self.examples = examples
        self.labels = labels

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.examples[index], int(self.labels[index])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialise the dataset as ``(examples, labels)`` arrays."""
        return self.examples, self.labels
