"""Alternative attack objectives.

The default attack objective is softmax cross-entropy (the paper's choice).
This module adds the Carlini–Wagner-style *logit margin*, which avoids
cross-entropy's gradient saturation on highly confident predictions and is
a common drop-in strengthening of FGSM/BIM/PGD (pass ``loss_fn=margin_loss``
to any attack).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, as_tensor
from ..nn.losses import one_hot

__all__ = ["margin_loss"]


def margin_loss(logits: Tensor, labels, reduction: str = "mean") -> Tensor:
    """Carlini–Wagner margin: ``max_other_logit - true_logit``.

    Ascending this objective directly grows the gap between the best wrong
    class and the true class; its gradient does not vanish when the model
    is confidently correct, unlike cross-entropy's.

    Parameters
    ----------
    logits:
        ``(N, C)`` raw scores.
    labels:
        ``(N,)`` integer true classes.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got shape {logits.shape}")
    labels = np.asarray(
        labels.data if isinstance(labels, Tensor) else labels
    ).astype(np.int64)
    n, c = logits.shape
    target_mask = one_hot(labels, c)
    true_logit = (logits * Tensor(target_mask)).sum(axis=1)
    # The best wrong class is picked on the values, with the true class
    # pushed to -inf-ish (ties go to the lower class index); indexing
    # routes the gradient to that one logit.
    best_class = np.argmax(logits.data - target_mask * 1e9, axis=1)
    best_other = logits[np.arange(n), best_class]
    margin = best_other - true_logit
    if reduction == "mean":
        return margin.mean()
    if reduction == "sum":
        return margin.sum()
    if reduction == "none":
        return margin
    raise ValueError(
        f"unknown reduction {reduction!r}; choose 'mean', 'sum' or 'none'"
    )
