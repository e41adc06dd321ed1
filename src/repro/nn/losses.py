"""Loss functions.

All classification losses operate on raw logits and integer class labels;
softmax/log-softmax is folded into the loss for numerical stability (the
standard practice that also matters for attack gradients: FGSM/BIM
differentiate exactly this loss w.r.t. the input).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, softmax_cross_entropy
from ..runtime import compute_dtype
from .module import Module

__all__ = ["cross_entropy", "CrossEntropyLoss", "one_hot"]


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Return a float one-hot encoding of integer ``labels``."""
    labels = np.asarray(
        labels.data if isinstance(labels, Tensor) else labels
    ).astype(np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range for {num_classes} classes: "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=compute_dtype())
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def cross_entropy(
    logits: Tensor,
    labels,
    reduction: str = "mean",
    label_smoothing: float = 0.0,
) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``labels``.

    Parameters
    ----------
    logits:
        ``(N, C)`` raw scores.
    labels:
        ``(N,)`` integer class indices.
    reduction:
        ``"mean"`` (default), ``"sum"`` or ``"none"``.
    label_smoothing:
        Mixes the one-hot target with the uniform distribution; ``0``
        recovers plain cross-entropy.

    Notes
    -----
    Dispatches to the fused :func:`repro.autograd.softmax_cross_entropy`
    node — one graph node with a closed-form ``(softmax - target) * scale``
    backward — which every trainer and attack therefore inherits.
    """
    return softmax_cross_entropy(
        logits,
        labels,
        reduction=reduction,
        label_smoothing=label_smoothing,
    )


class CrossEntropyLoss(Module):
    """Module wrapper around :func:`cross_entropy`."""

    def __init__(
        self, reduction: str = "mean", label_smoothing: float = 0.0
    ) -> None:
        super().__init__()
        self.reduction = reduction
        self.label_smoothing = label_smoothing

    def forward(self, logits: Tensor, labels) -> Tensor:
        """Compute the loss (see the matching functional)."""
        return cross_entropy(
            logits,
            labels,
            reduction=self.reduction,
            label_smoothing=self.label_smoothing,
        )
