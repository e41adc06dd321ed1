"""Fast Gradient Sign Method (Goodfellow et al., 2015)."""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_positive
from .base import Attack
from .loop import (
    AttackLoop,
    BackpropGradient,
    BoxProjection,
    GradientStep,
    SignStep,
)

__all__ = ["FGSM"]


class FGSM(Attack):
    """Single-step l_inf attack: ``x' = clip(x + eps * sign(grad))``.

    Composed on the attack engine as one sign step of size ``epsilon``
    from a zero initialisation with a box-only projection (a single
    full-budget sign step cannot leave the l_inf ball, so no ball
    projection is needed).

    Parameters
    ----------
    model, loss_fn, clip_min, clip_max:
        See :class:`~repro.attacks.base.Attack`.
    epsilon:
        Perturbation budget (l_inf radius).
    """

    def __init__(self, model, epsilon: float, **kwargs) -> None:
        super().__init__(model, **kwargs)
        check_positive("epsilon", epsilon)
        self.epsilon = float(epsilon)
        self._loop = AttackLoop(
            GradientStep(
                BackpropGradient(model, self.loss_fn),
                SignStep(self.epsilon),
                BoxProjection(self.clip_min, self.clip_max),
            ),
            num_steps=1,
        )

    def generate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return adversarial examples for the batch ``(x, y)``."""
        x, y = self._validate(x, y)
        return self._loop.run(x, y)
