"""Classic adversarial training: FGSM-Adv (Single-Adv) and BIM-Adv (Iter-Adv).

Both train on a mixture of clean and adversarial examples, as in the paper's
Section II setup:

* ``FgsmAdvTrainer`` — Goodfellow et al. (2015): one FGSM generation per
  batch (one extra forward/backward), cheap but defeated by iterative
  attacks (Figure 1, Table I rows "FGSM-Adv").
* ``IterAdvTrainer`` — Kurakin et al. (2016) / Madry et al. (2017): a
  ``k``-step BIM generation per batch (``k`` extra forward/backwards),
  strong but ``k`` times more expensive — Figure 3a's inner loop.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import telemetry as tel
from ..attacks import Attack, build_attack
from ..autograd import Tensor
from ..data.loader import Batch
from ..nn import Module, cross_entropy
from ..optim import Optimizer
from ..utils.validation import check_in_unit_interval
from .trainer import Trainer

__all__ = ["MixedAdversarialTrainer", "FgsmAdvTrainer", "IterAdvTrainer"]


class MixedAdversarialTrainer(Trainer):
    """Shared machinery: loss = alpha * clean + (1 - alpha) * adversarial.

    Subclasses provide the attack used to craft the adversarial half via
    :meth:`make_attack` or by overriding :meth:`adversarial_batch`; callers
    can instead pass any attack-registry spec string (``attack_spec``) and
    train against that attack directly.

    Parameters
    ----------
    clean_weight:
        Mixture weight ``alpha`` on the clean loss (paper setups use 0.5:
        "a mixture of original and ... examples").
    attack_spec:
        Optional ``name:param=value`` spec resolved through the canonical
        attack registry (:func:`repro.attacks.build_attack`); the trainer's
        ``epsilon`` attribute (when set by a subclass) supplies the budget.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable = cross_entropy,
        scheduler=None,
        clean_weight: float = 0.5,
        warmup_epochs: int = 0,
        attack_spec: Optional[str] = None,
    ) -> None:
        super().__init__(model, optimizer, loss_fn=loss_fn, scheduler=scheduler)
        check_in_unit_interval("clean_weight", clean_weight)
        if warmup_epochs < 0:
            raise ValueError(
                f"warmup_epochs must be non-negative, got {warmup_epochs}"
            )
        self.clean_weight = clean_weight
        self.warmup_epochs = int(warmup_epochs)
        self.attack_spec = attack_spec
        self.attack: Optional[Attack] = None

    @property
    def in_warmup(self) -> bool:
        """True while the trainer is still in its clean warmup phase."""
        return self.epoch < self.warmup_epochs

    def make_attack(self) -> Attack:
        """Build the training attack bound to the current model."""
        if self.attack_spec is not None:
            attack = build_attack(
                self.attack_spec,
                self.model,
                epsilon=getattr(self, "epsilon", None),
                loss_fn=self.loss_fn,
            )
            if attack is None:
                raise ValueError(
                    "adversarial training needs a real attack; got clean "
                    f"spec {self.attack_spec!r}"
                )
            return attack
        raise NotImplementedError

    def _ensure_attack(self) -> Attack:
        if self.attack is None:
            self.attack = self.make_attack()
        return self.attack

    def adversarial_batch(self, batch: Batch) -> np.ndarray:
        """Craft adversarial examples for this batch against the current
        model state (the generator/classifier interaction of Figure 3a)."""
        with tel.span("attack"):
            return self._ensure_attack().generate(batch.x, batch.y)

    def compute_batch_loss(self, batch: Batch) -> Tensor:
        """Loss for one batch (see class docstring for the objective)."""
        if self.in_warmup:
            return self.loss_fn(self.model(Tensor(batch.x)), batch.y)
        x_adv = self.adversarial_batch(batch)
        clean_loss = self.loss_fn(self.model(Tensor(batch.x)), batch.y)
        adv_loss = self.loss_fn(self.model(Tensor(x_adv)), batch.y)
        alpha = self.clean_weight
        return clean_loss * alpha + adv_loss * (1.0 - alpha)


class FgsmAdvTrainer(MixedAdversarialTrainer):
    """Single-Adv baseline: adversarial half crafted with one FGSM step."""

    name = "fgsm_adv"

    def __init__(self, model, optimizer, epsilon: float, **kwargs) -> None:
        super().__init__(model, optimizer, **kwargs)
        self.epsilon = float(epsilon)

    def make_attack(self) -> Attack:
        """Build the training attack bound to the current model."""
        if self.attack_spec is not None:
            return super().make_attack()
        return build_attack(
            "fgsm", self.model, epsilon=self.epsilon, loss_fn=self.loss_fn
        )


class IterAdvTrainer(MixedAdversarialTrainer):
    """Iter-Adv: adversarial half crafted with a full BIM run per batch.

    ``BIM(k)-Adv`` in the paper is ``IterAdvTrainer(num_steps=k)``; its cost
    per epoch is ``k + 2`` forward/backward passes versus 3 for Single-Adv
    methods, which is exactly the scaling Table I's timing column shows.
    """

    name = "iter_adv"

    def __init__(
        self,
        model,
        optimizer,
        epsilon: float,
        num_steps: int = 10,
        step_size: Optional[float] = None,
        **kwargs,
    ) -> None:
        super().__init__(model, optimizer, **kwargs)
        self.epsilon = float(epsilon)
        self.num_steps = int(num_steps)
        self.step_size = step_size

    @property
    def name_with_steps(self) -> str:
        """Paper-style row name, e.g. ``bim10_adv``."""
        return f"bim{self.num_steps}_adv"

    def make_attack(self) -> Attack:
        """Build the training attack bound to the current model."""
        if self.attack_spec is not None:
            return super().make_attack()
        return build_attack(
            "bim",
            self.model,
            epsilon=self.epsilon,
            num_steps=self.num_steps,
            step_size=self.step_size,
            loss_fn=self.loss_fn,
        )
