"""Random-noise baseline "attack".

Uniform noise at the same l_inf budget as the gradient attacks.  Useful as
a sanity baseline: a robust model should lose almost no accuracy to noise,
and any gradient attack should be strictly stronger.  On the attack engine
this is the degenerate composition: a random initializer and zero steps.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import check_positive
from .base import Attack
from .loop import AttackLoop, UniformLinfInit

__all__ = ["RandomNoise"]


class RandomNoise(Attack):
    """Uniform l_inf noise of radius ``epsilon`` (no gradients used)."""

    def __init__(
        self, model, epsilon: float, rng: RngLike = None, **kwargs
    ) -> None:
        super().__init__(model, **kwargs)
        check_positive("epsilon", epsilon)
        self.epsilon = float(epsilon)
        self._rng = ensure_rng(rng)
        self._loop = AttackLoop(
            step_fn=None,
            num_steps=0,
            initializer=UniformLinfInit(
                self.epsilon, self._rng, self.clip_min, self.clip_max
            ),
        )

    def generate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return adversarial examples for the batch ``(x, y)``."""
        x, y = self._validate(x, y)
        return self._loop.run(x, y)
