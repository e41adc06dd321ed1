"""TRADES (Zhang et al., 2019) — robustness/accuracy trade-off baseline.

A modern Iter-Adv relative included for the paper's future-work comparison.
TRADES optimises::

    CE(f(x), y) + beta * KL( f(x_adv) || f(x) )

where ``x_adv`` maximises the KL term inside the epsilon-ball (found here
with BIM steps on the KL objective).  Unlike the mixture losses used by
the Table I methods, the robust term is a *consistency* regulariser: it
pushes the classifier to be stable inside the ball rather than correct on
specific adversarial points.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import telemetry as tel
from ..attacks import (
    AttackLoop,
    BackpropGradient,
    GradientStep,
    LinfBoxProjection,
    SignStep,
)
from ..autograd import Tensor, log_softmax, softmax
from ..data.loader import Batch
from ..nn import Module, cross_entropy
from ..optim import Optimizer
from ..runtime import ensure_float_array
from ..utils.rng import RngLike
from ..utils.validation import check_positive
from .trainer import Trainer

__all__ = ["kl_divergence", "TradesTrainer"]


def kl_divergence(p_logits: Tensor, q_logits: Tensor) -> Tensor:
    """Mean KL( softmax(p) || softmax(q) ) over a batch of logit rows."""
    p_log = log_softmax(p_logits, axis=-1)
    q_log = log_softmax(q_logits, axis=-1)
    p = softmax(p_logits, axis=-1)
    per_example = (p * (p_log - q_log)).sum(axis=-1)
    return per_example.mean()


class TradesTrainer(Trainer):
    """Adversarial training with the TRADES objective.

    Parameters
    ----------
    epsilon:
        l_inf ball radius.
    beta:
        Weight of the KL consistency term (paper: 1-6).
    num_steps:
        Inner maximisation steps (cost scales like Iter-Adv).
    step_size:
        Inner step size; defaults to ``epsilon / num_steps * 2`` so the
        iterate can traverse the ball.
    warmup_epochs:
        Clean epochs before the TRADES objective kicks in (see
        :class:`~repro.defenses.trainer.Trainer`).
    """

    name = "trades"

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        epsilon: float,
        beta: float = 3.0,
        num_steps: int = 10,
        step_size: Optional[float] = None,
        warmup_epochs: int = 0,
        loss_fn: Callable = cross_entropy,
        scheduler=None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            model, optimizer, loss_fn=loss_fn, scheduler=scheduler,
            warmup_epochs=warmup_epochs, rng=rng,
        )
        check_positive("epsilon", epsilon)
        check_positive("beta", beta)
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        self.epsilon = float(epsilon)
        self.beta = float(beta)
        self.num_steps = int(num_steps)
        self.step_size = (
            float(step_size)
            if step_size is not None
            else 2.0 * self.epsilon / self.num_steps
        )
        check_positive("step_size", self.step_size)

    # ------------------------------------------------------------------
    def _maximise_kl(self, x: np.ndarray, clean_logits: np.ndarray):
        """Inner loop: find x_adv maximising KL(f(x_adv) || f(x)).

        Runs on the attack engine: a BIM-shaped composition whose objective
        is KL(clean || adv) — the direction used by the reference TRADES
        implementation (torch ``kl_div(log_softmax(adv), softmax(clean))``)
        — instead of cross-entropy, so labels are ignored entirely.
        """
        clean = Tensor(clean_logits)
        loop = AttackLoop(
            self.model,
            GradientStep(
                BackpropGradient(
                    self.model,
                    lambda adv_logits, _y: kl_divergence(clean, adv_logits),
                ),
                SignStep(self.step_size),
                LinfBoxProjection(self.epsilon),
            ),
            num_steps=self.num_steps,
        )
        # Labels are unused by the KL objective; pass placeholder zeros.
        y_unused = np.zeros(len(x), dtype=np.int64)
        return loop.run(x, y_unused, start=ensure_float_array(x, copy=True))

    def compute_batch_loss(self, batch: Batch) -> Tensor:
        """Natural CE plus beta-weighted KL consistency term."""
        clean_logits = self.model(Tensor(batch.x))
        natural = self.loss_fn(clean_logits, batch.y)
        with tel.span("attack"):
            x_adv = self._maximise_kl(batch.x, clean_logits.data)
        adv_logits = self.model(Tensor(x_adv))
        robust = kl_divergence(clean_logits, adv_logits)
        return natural + robust * self.beta
