"""The paper's proposed defense: epoch-wise single-step adversarial training.

This is the contribution of Section IV (Figure 3b).  Instead of running the
BIM inner loop to completion inside every epoch (Iter-Adv, Figure 3a), the
trainer:

1. keeps a **per-example cache** of adversarial examples carried across
   epochs — the BIM iteration is amortised over the training epochs
   (empirical property 2: intermediate iterates already reveal most blind
   spots);
2. applies exactly **one** perturbation step per example per epoch, using a
   **relatively large per-step perturbation** (empirical property 1: tiny
   steps stop paying off) so the cached examples quickly reach the full
   budget;
3. **resets** the cache to the clean examples every ``reset_interval``
   epochs, so the accumulated perturbations track the long-term drift of
   the classifier's parameters.

Paper hyper-parameters: per-step size ``eps / 10``, reset every 20 epochs.
Per-epoch cost is one extra forward/backward — the same as FGSM-Adv and far
below BIM(k)-Adv's ``k`` — which yields Table I's timing column.
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
from ..data.loader import Batch
from ..nn import Module, cross_entropy
from ..optim import Optimizer
from ..runtime import ensure_float_array
from ..utils.rng import RngLike
from ..utils.validation import check_positive
from .adversarial import MixedAdversarialTrainer
from .delta import DEFAULT_BLOCK_SIZE, DeltaStore

__all__ = ["EpochwiseAdvTrainer"]


class EpochwiseAdvTrainer(MixedAdversarialTrainer):
    """Proposed Single-Adv method (Liu et al., 2019).

    The clean/adversarial mixture and the warmup are
    :class:`~repro.defenses.adversarial.MixedAdversarialTrainer`'s; this
    class only changes how each batch's adversarial half is made
    (:meth:`adversarial_batch`) and when the carried state is reset
    (:meth:`on_epoch_start`).

    Parameters
    ----------
    model, optimizer, loss_fn, warmup_epochs:
        As in :class:`~repro.defenses.trainer.Trainer`.
    epsilon:
        Total l_inf budget; cached perturbations are always projected into
        the epsilon-ball around the clean example and into the image box.
    step_size:
        Per-epoch perturbation step — the paper's "relatively large per
        step perturbation".  The paper used ``epsilon / 10`` on a 60k-image
        dataset trained for many epochs; on this repo's smaller, faster-
        drifting substrate the calibrated equivalent is ``epsilon`` (the
        default).  The ablation benchmark sweeps this factor and shows the
        paper's property 1 trend: too-small steps cripple the defense.
    reset_interval:
        Cache reset period in epochs (paper: 20).  ``0`` disables resets.
    clean_weight:
        Mixture weight of the clean loss (0.5 as in the other defenses).
    delta_block_size:
        Dataset indices per delta-store block (see
        :class:`~repro.defenses.delta.DeltaStore`).
    delta_budget_bytes:
        Byte budget for the carried perturbations; ``None`` is unbounded.
        Under a binding budget, least-recently-trained blocks are dropped
        and their examples restart from clean — the streaming analogue of
        a partial cache reset.
    """

    name = "epochwise_adv"

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        epsilon: float,
        step_size: Optional[float] = None,
        reset_interval: int = 20,
        clean_weight: float = 0.5,
        warmup_epochs: int = 0,
        loss_fn: Callable = cross_entropy,
        delta_block_size: int = DEFAULT_BLOCK_SIZE,
        delta_budget_bytes: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            model, optimizer, loss_fn=loss_fn,
            clean_weight=clean_weight, warmup_epochs=warmup_epochs, rng=rng,
        )
        check_positive("epsilon", epsilon)
        if reset_interval < 0:
            raise ValueError(
                f"reset_interval must be non-negative, got {reset_interval}"
            )
        self.epsilon = float(epsilon)
        self.step_size = (
            float(step_size) if step_size is not None else self.epsilon
        )
        check_positive("step_size", self.step_size)
        self.reset_interval = int(reset_interval)
        # dataset index -> carried perturbation (delta, not the absolute
        # adversarial example), held in budget-bounded blocks; the clean
        # example is re-supplied by the data pipeline every epoch, so the
        # trainer never holds a second copy of the dataset.
        self._delta = DeltaStore(
            block_size=delta_block_size, budget_bytes=delta_budget_bytes
        )
        # The paper's method IS the attack engine run with carried state:
        # the per-example cache plays the initializer role (the iterate is
        # resumed, not restarted), and each epoch applies exactly one
        # engine step — a BIM step composition (backprop gradient, sign
        # rule, fused l_inf+box projection) with the clean example as the
        # projection anchor.
        self._stepper = AttackLoop(
            GradientStep(
                BackpropGradient(self.model, self.loss_fn),
                SignStep(self.step_size),
                LinfBoxProjection(self.epsilon),
            ),
            num_steps=1,
        )

    # ------------------------------------------------------------------
    @property
    def delta_store(self) -> DeltaStore:
        """The carried-perturbation store (diagnostics, benchmarks)."""
        return self._delta

    def reset_cache(self) -> None:
        """Forget all carried perturbations (epoch-wise restart)."""
        self._delta.clear()

    @property
    def cache_size(self) -> int:
        """Number of examples with a carried perturbation."""
        return self._delta.count

    def epoch_attrs(self) -> dict:
        """The two knobs the ablations sweep."""
        return {
            "reset_interval": self.reset_interval,
            "step_size": self.step_size,
        }

    def on_epoch_start(self, epoch: int) -> None:
        """Reset the cache every ``reset_interval`` adversarial epochs."""
        adv_epoch = epoch - self.warmup_epochs
        if (
            self.reset_interval
            and adv_epoch > 0
            and adv_epoch % self.reset_interval == 0
        ):
            dropped = self.cache_size
            self.reset_cache()
            tel.counter("epochwise.cache_resets")
            tel.event(
                "epochwise.cache_reset", epoch=epoch, dropped=dropped
            )

    # ------------------------------------------------------------------
    def adversarial_batch(self, batch: Batch) -> np.ndarray:
        """One perturbation step from the carried iterate (Figure 3b).

        The carried iterate is reconstructed as ``clip(clean + delta)``
        from the delta store (clean where nothing is carried), stepped
        once, and the new delta is carried forward.
        """
        with tel.span("attack"):
            x_clean = ensure_float_array(batch.x)
            x_start = self._delta.lookup(batch.indices, x_clean)
            x_adv = self._stepper.step(x_start, x_clean, batch.y)
            self._delta.store(batch.indices, x_adv, x_clean)
            if tel.enabled():
                tel.gauge("epochwise.cache_bytes", self._delta.nbytes)
                tel.gauge(
                    "epochwise.cache_peak_bytes", self._delta.peak_bytes
                )
                tel.gauge(
                    "epochwise.cache_evictions", self._delta.evictions
                )
            return x_adv
