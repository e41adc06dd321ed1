"""ATDA: Adversarial Training with Domain Adaptation (Song et al., 2018).

The SOTA Single-Adv baseline the paper compares against (Table I).  Per
batch it:

1. crafts single-step adversarial examples (FGSM),
2. computes classification loss on both clean and adversarial halves,
3. adds unsupervised domain adaptation (CORAL + mean alignment between the
   clean and adversarial embedding distributions),
4. adds supervised domain adaptation (margin loss against EMA class
   centres computed over both domains).

Cost per epoch: one attack forward/backward plus the extra loss terms —
slightly above FGSM-Adv, noticeably above the proposed method once the DA
terms are included (Table I's timing column: ATDA 26.21 s vs proposed
18.68 s on the paper's hardware).
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import telemetry as tel
from ..attacks import FGSM
from ..autograd import Tensor
from ..data.loader import Batch
from ..nn import Module, cross_entropy
from ..optim import Optimizer
from ..utils.rng import RngLike
from ..utils.validation import check_in_unit_interval, check_positive
from .domain_adaptation import (
    ClassCenters,
    coral_loss,
    margin_center_loss,
    mean_alignment_loss,
)
from .trainer import Trainer

__all__ = ["AtdaTrainer"]


class AtdaTrainer(Trainer):
    """Adversarial training with domain adaptation.

    Parameters
    ----------
    model:
        A :class:`~repro.models.FeatureClassifier` — ATDA needs access to
        the embedding (``model.embed``), not just the logits.
    epsilon:
        l_inf budget of the single-step attack.
    lambda_uda, lambda_sda:
        Weights of the unsupervised and supervised DA terms.
    margin:
        Margin of the supervised centre loss.
    center_momentum:
        EMA momentum of the class centres.
    clean_weight, warmup_epochs:
        As in :class:`~repro.defenses.adversarial.MixedAdversarialTrainer`.
    """

    name = "atda"

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        epsilon: float,
        lambda_uda: float = 1.0,
        lambda_sda: float = 0.1,
        margin: float = 1.0,
        center_momentum: float = 0.9,
        clean_weight: float = 0.5,
        warmup_epochs: int = 0,
        loss_fn: Callable = cross_entropy,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            model, optimizer, loss_fn=loss_fn,
            warmup_epochs=warmup_epochs, rng=rng,
        )
        if not hasattr(model, "embed"):
            raise TypeError(
                "AtdaTrainer requires a model exposing .embed() "
                "(see repro.models.FeatureClassifier)"
            )
        check_positive("epsilon", epsilon)
        check_in_unit_interval("clean_weight", clean_weight)
        self.epsilon = float(epsilon)
        self.lambda_uda = float(lambda_uda)
        self.lambda_sda = float(lambda_sda)
        self.margin = float(margin)
        self.center_momentum = float(center_momentum)
        self.clean_weight = clean_weight
        self._centers: Optional[ClassCenters] = None
        self._attack = FGSM(self.model, self.epsilon, loss_fn=self.loss_fn)

    # ------------------------------------------------------------------
    def _ensure_centers(self, dim: int) -> ClassCenters:
        if self._centers is None:
            num_classes = getattr(self.model, "num_classes", None)
            if num_classes is None:
                raise TypeError(
                    "model must expose num_classes for the SDA centres"
                )
            self._centers = ClassCenters(
                num_classes, dim, momentum=self.center_momentum
            )
        return self._centers

    @property
    def centers(self) -> Optional[ClassCenters]:
        """The supervised-DA class centres (None before the first batch)."""
        return self._centers

    # ------------------------------------------------------------------
    def compute_batch_loss(self, batch: Batch) -> Tensor:
        """Classification + UDA + SDA loss for one batch."""
        with tel.span("attack"):
            x_adv = self._attack.generate(batch.x, batch.y)

        clean_emb = self.model.embed(Tensor(batch.x))
        adv_emb = self.model.embed(Tensor(x_adv))
        clean_logits = self.model.head(clean_emb)
        adv_logits = self.model.head(adv_emb)

        alpha = self.clean_weight
        classification = (
            self.loss_fn(clean_logits, batch.y) * alpha
            + self.loss_fn(adv_logits, batch.y) * (1.0 - alpha)
        )

        uda = coral_loss(clean_emb, adv_emb) + mean_alignment_loss(
            clean_emb, adv_emb
        )

        centers = self._ensure_centers(clean_emb.shape[1])
        # Update centres from both domains before computing the margin term,
        # using detached embeddings (gradients do not flow into centres).
        centers.update(clean_emb.data, batch.y)
        centers.update(adv_emb.data, batch.y)
        sda = margin_center_loss(
            clean_emb, batch.y, centers.as_array(), margin=self.margin
        ) + margin_center_loss(
            adv_emb, batch.y, centers.as_array(), margin=self.margin
        )

        return (
            classification
            + uda * self.lambda_uda
            + sda * self.lambda_sda
        )
