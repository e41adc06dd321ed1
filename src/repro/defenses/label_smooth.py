"""Label-smoothing defense baseline.

Training with smoothed labels (Szegedy et al., 2016; studied as a weak
defense by Warde-Farley & Goodfellow) slightly flattens the loss surface
and raises single-step robustness without any attack in the loop — a
useful *negative* baseline: like the paper's Vanilla/FGSM-Adv rows it must
fall to iterative attacks, demonstrating that resisting BIM requires
actual adversarial training.
"""

from __future__ import annotations

from ..autograd import Tensor
from ..data.loader import Batch
from ..nn import Module, cross_entropy
from ..optim import Optimizer
from ..utils.rng import RngLike
from ..utils.validation import check_in_unit_interval
from .trainer import Trainer

__all__ = ["LabelSmoothingTrainer"]


class LabelSmoothingTrainer(Trainer):
    """Vanilla training with a smoothed cross-entropy target.

    Parameters
    ----------
    smoothing:
        Mass moved from the true class to the uniform distribution.
    warmup_epochs:
        Clean epochs on the unsmoothed loss first (see
        :class:`~repro.defenses.trainer.Trainer`).
    """

    name = "label_smooth"

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        smoothing: float = 0.1,
        warmup_epochs: int = 0,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            model, optimizer, warmup_epochs=warmup_epochs, rng=rng
        )
        check_in_unit_interval("smoothing", smoothing)
        self.smoothing = float(smoothing)

    def compute_batch_loss(self, batch: Batch) -> Tensor:
        """Smoothed cross-entropy on the clean batch."""
        logits = self.model(Tensor(batch.x))
        return cross_entropy(
            logits, batch.y, label_smoothing=self.smoothing
        )
