"""SPSA attack (Uesato et al., 2018) — gradient-free l_inf attack.

Estimates the loss gradient with Simultaneous Perturbation Stochastic
Approximation: random Rademacher directions and finite differences of the
loss, no backpropagation.  Because it never touches the model's gradients,
SPSA penetrates gradient masking — it is the standard "is your white-box
robustness real?" cross-check and complements the diagnostics in
:mod:`repro.eval.diagnostics`.

On the attack engine this is simply BIM's composition with the backprop
estimator swapped for :class:`~repro.attacks.loop.SpsaGradient` — the
gradient-estimator seam is exactly where white-box and black-box attacks
diverge.
"""

from __future__ import annotations

from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import check_positive
from .bim import BIM
from .loop import SpsaGradient

__all__ = ["SPSA"]


class SPSA(BIM):
    """Gradient-free l_inf attack via SPSA gradient estimation.

    Parameters
    ----------
    epsilon:
        l_inf budget.
    num_steps:
        Ascent steps.
    step_size:
        Per-step l_inf movement; defaults to ``epsilon / num_steps * 2``.
    samples:
        Rademacher direction pairs per gradient estimate (more = less
        noise = stronger attack, linearly more forward passes).
    delta:
        Finite-difference probe radius.
    """

    def __init__(
        self,
        model,
        epsilon: float,
        num_steps: int = 10,
        step_size: float = None,
        samples: int = 16,
        delta: float = 0.01,
        rng: RngLike = None,
        **kwargs,
    ) -> None:
        check_positive("epsilon", epsilon)
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        if samples <= 0:
            raise ValueError(f"samples must be positive, got {samples}")
        check_positive("delta", delta)
        super().__init__(
            model,
            epsilon,
            num_steps=num_steps,
            step_size=(
                float(step_size)
                if step_size is not None
                else 2.0 * float(epsilon) / int(num_steps)
            ),
            **kwargs,
        )
        self.samples = int(samples)
        self.delta = float(delta)
        self._rng = ensure_rng(rng)

    def _make_estimator(self):
        return SpsaGradient(
            self.model,
            self.loss_fn,
            samples=self.samples,
            delta=self.delta,
            rng=self._rng,
        )
