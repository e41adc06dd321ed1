"""Fused loss operations.

The softmax-cross-entropy below is the single hottest graph node in the
repository: every trainer *and* every white-box attack differentiates it,
either with respect to parameters or with respect to the input image.  The
composed formulation (``log_softmax`` → one-hot multiply → ``sum`` →
``mean``) builds five graph nodes and materialises a one-hot target plus
several ``(N, C)`` temporaries per call; this `Function` computes the loss
directly from the logits in one node.

Forward (stable logsumexp form, per example ``i`` with target ``y_i`` and
smoothing ``s``)::

    loss_i = logsumexp(z_i) - (1 - s) * z_{i,y_i} - s * mean_j(z_{i,j})

Backward is the closed form ``(softmax(z) - target) * scale`` where
``target = (1 - s) * onehot + s / C`` and ``scale`` folds in the reduction;
the softmax saved by the forward is updated in place, so the backward pass
allocates nothing beyond numpy scalar temporaries.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_in_unit_interval
from .engine import Function, Tensor, as_tensor

__all__ = ["SoftmaxCrossEntropy", "softmax_cross_entropy"]

_REDUCTIONS = ("mean", "sum", "none")


class SoftmaxCrossEntropy(Function):
    """Fused softmax cross-entropy over ``(N, C)`` logits."""

    @staticmethod
    def forward(ctx, logits, labels, reduction="mean", label_smoothing=0.0):
        n, num_classes = logits.shape
        rows = np.arange(n)
        peak = logits.max(axis=1, keepdims=True)
        shifted = logits - peak
        np.exp(shifted, out=shifted)
        total = shifted.sum(axis=1, keepdims=True)
        softmax = shifted
        softmax /= total
        picked = logits[rows, labels]
        loss = peak[:, 0] + np.log(total[:, 0])  # logsumexp per example
        loss -= picked
        if label_smoothing > 0.0:
            # s/C * sum_j z_j == s * mean_j z_j, so the smoothed target dot
            # product needs only the per-example mean, not the full one-hot.
            loss += label_smoothing * (picked - logits.mean(axis=1))
        ctx.save_for_backward(
            softmax, labels, reduction, label_smoothing, n, num_classes
        )
        if reduction == "mean":
            return np.asarray(loss.mean())
        if reduction == "sum":
            return np.asarray(loss.sum())
        return loss

    @staticmethod
    def backward(ctx, grad_output):
        softmax, labels, reduction, smoothing, n, num_classes = ctx.saved
        # The saved softmax is private to this node, so the gradient is
        # formed in place: grad = (softmax - target) * scale.
        grad = softmax
        if smoothing > 0.0:
            grad -= smoothing / num_classes
        grad[np.arange(n), labels] -= 1.0 - smoothing
        if reduction == "mean":
            grad *= grad_output / n
        elif reduction == "sum":
            grad *= grad_output
        else:
            grad *= grad_output.reshape(n, 1)
        return grad, None


def softmax_cross_entropy(
    logits,
    labels,
    reduction: str = "mean",
    label_smoothing: float = 0.0,
) -> Tensor:
    """Fused softmax cross-entropy between ``logits`` and integer ``labels``.

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
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got shape {logits.shape}")
    if reduction not in _REDUCTIONS:
        raise ValueError(
            f"unknown reduction {reduction!r}; choose 'mean', 'sum' or 'none'"
        )
    check_in_unit_interval("label_smoothing", label_smoothing)
    labels = np.asarray(
        labels.data if isinstance(labels, Tensor) else labels
    ).astype(np.int64, copy=False)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    n, num_classes = logits.shape
    if labels.shape[0] != n:
        raise ValueError(
            f"expected {n} labels for {n} logit rows, got {labels.shape[0]}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range for {num_classes} classes: "
            f"[{labels.min()}, {labels.max()}]"
        )
    return SoftmaxCrossEntropy.apply(
        logits, labels, reduction=reduction, label_smoothing=label_smoothing
    )
