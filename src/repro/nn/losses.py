"""Loss functions.

All classification losses operate on raw logits and integer class labels;
softmax/log-softmax is folded into the loss for numerical stability (the
standard practice that also matters for attack gradients: FGSM/BIM
differentiate exactly this loss w.r.t. the input).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, as_tensor, softmax_cross_entropy
from ..runtime import compute_dtype
from .module import Module

__all__ = [
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "CrossEntropyLoss",
    "NLLLoss",
    "MSELoss",
    "one_hot",
]


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


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return value.mean()
    if reduction == "sum":
        return value.sum()
    if reduction == "none":
        return value
    raise ValueError(
        f"unknown reduction {reduction!r}; choose 'mean', 'sum' or 'none'"
    )


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


def nll_loss(log_probs: Tensor, labels, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given precomputed log-probabilities."""
    log_probs = as_tensor(log_probs)
    target = one_hot(labels, log_probs.shape[1])
    per_example = -(log_probs * Tensor(target)).sum(axis=-1)
    return _reduce(per_example, reduction)


def mse_loss(prediction: Tensor, target, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    if prediction.shape != target.shape:
        raise ValueError(
            f"shape mismatch: prediction {prediction.shape} vs "
            f"target {target.shape}"
        )
    diff = prediction - target
    return _reduce(diff * diff, reduction)


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


class NLLLoss(Module):
    """Module wrapper around :func:`nll_loss`."""

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        self.reduction = reduction

    def forward(self, log_probs: Tensor, labels) -> Tensor:
        """Compute the loss (see the matching functional)."""
        return nll_loss(log_probs, labels, reduction=self.reduction)


class MSELoss(Module):
    """Module wrapper around :func:`mse_loss`."""

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        self.reduction = reduction

    def forward(self, prediction: Tensor, target) -> Tensor:
        """Compute the loss (see the matching functional)."""
        return mse_loss(prediction, target, reduction=self.reduction)
