"""Basic Iterative Method (Kurakin et al., 2016) — iterative FGSM.

This is the attack at the centre of the paper:

* **Figure 1** sweeps the iteration count ``N`` with ``eps_step = eps / N``.
* **Figure 2** fixes ``N = 10`` and inspects the *intermediate* iterates —
  :meth:`BIM.generate_with_intermediates` exposes exactly those.
* **Table I** evaluates defenses against BIM(10) and BIM(30).

The class is a declarative composition over the attack engine: zero
initialisation, backprop gradients, sign steps, and the fused
l_inf-ball + box projection.  Subclasses (PGD, SPSA) swap the initializer
or the gradient estimator by overriding the ``_make_*`` factories.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..utils.validation import check_positive
from .base import Attack
from .loop import (
    AttackLoop,
    BackpropGradient,
    GradientStep,
    LinfBoxProjection,
    SignStep,
    zero_init,
)

__all__ = ["BIM"]


class BIM(Attack):
    """Iterative l_inf attack with per-step budget and total projection.

    Parameters
    ----------
    model:
        Victim classifier.
    epsilon:
        Total l_inf budget.
    num_steps:
        Number of gradient steps (the paper's ``N``).
    step_size:
        Per-step perturbation (the paper's ``eps_s``).  Defaults to
        ``epsilon / num_steps`` — the schedule Figure 1 uses — so the total
        perturbation after ``N`` steps exactly reaches the budget.
    """

    def __init__(
        self,
        model,
        epsilon: float,
        num_steps: int = 10,
        step_size: Optional[float] = None,
        **kwargs,
    ) -> None:
        super().__init__(model, **kwargs)
        check_positive("epsilon", epsilon)
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        self.epsilon = float(epsilon)
        self.num_steps = int(num_steps)
        self.step_size = (
            float(step_size) if step_size is not None
            else self.epsilon / self.num_steps
        )
        check_positive("step_size", self.step_size)
        self._loop: Optional[AttackLoop] = None

    # ------------------------------------------------------------------
    # Engine composition (overridden by subclasses to swap pieces).
    # ------------------------------------------------------------------
    def _make_estimator(self):
        return BackpropGradient(self.model, self.loss_fn)

    def _make_initializer(self):
        return zero_init

    @property
    def loop(self) -> AttackLoop:
        """The underlying :class:`AttackLoop` (built on first use)."""
        if self._loop is None:
            self._loop = AttackLoop(
                GradientStep(
                    self._make_estimator(),
                    SignStep(self.step_size),
                    LinfBoxProjection(
                        self.epsilon, self.clip_min, self.clip_max
                    ),
                ),
                num_steps=self.num_steps,
                initializer=self._make_initializer(),
            )
        return self._loop

    # ------------------------------------------------------------------
    def step(
        self, x_adv: np.ndarray, x_orig: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """One BIM iteration from ``x_adv``, projected around ``x_orig``."""
        return self.loop.step(x_adv, x_orig, y)

    def generate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return adversarial examples for the batch ``(x, y)``."""
        x, y = self._validate(x, y)
        return self.loop.run(x, y)

    def generate_with_intermediates(
        self, x: np.ndarray, y: np.ndarray
    ) -> List[np.ndarray]:
        """Return the iterate after *every* step (Figure 2's x-axis).

        ``result[i]`` is the adversarial batch after ``i + 1`` iterations;
        ``result[-1]`` equals :meth:`generate`'s output.
        """
        x, y = self._validate(x, y)
        return self.loop.run(x, y, record_intermediates=True)
