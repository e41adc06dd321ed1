"""Free adversarial training (Shafahi et al., 2019) — extension.

The paper's future work asks for a "deeper understanding of Single-Adv and
Iter-Adv"; free adversarial training is the closest published relative of
the proposed epoch-wise method, so it is included as an extension baseline.

Idea: replay each minibatch ``m`` times.  Every replay performs ONE
backward pass whose gradients are used **twice** — the parameter gradients
update the model, and the input gradient updates a persistent perturbation
``delta``.  Attack generation is thus "free": no extra passes beyond normal
training.  Like the paper's method, the perturbation is carried (here
across replays and batch visits) instead of being regenerated from scratch.

Cost per epoch equals ``m`` vanilla epochs; robustness approaches Iter-Adv
with ``m`` comparable to the BIM step count, at roughly a ``2x`` saving
over BIM(m)-Adv (which pays m attack passes *plus* the training pass).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from .. import telemetry as tel
from ..attacks import SignStep, clip_to_box
from ..autograd import Tensor
from ..data.loader import Batch
from ..nn import Module, cross_entropy
from ..optim import Optimizer
from ..runtime import compute_dtype, ensure_float_array
from ..utils.rng import RngLike
from ..utils.validation import check_positive
from .trainer import Trainer

__all__ = ["FreeAdvTrainer"]


class FreeAdvTrainer(Trainer):
    """Free-m adversarial training.

    Parameters
    ----------
    epsilon:
        l_inf budget for the persistent perturbation.
    replays:
        The "m" parameter: replays per minibatch.  Each replay costs one
        forward/backward, so an epoch costs ``m`` vanilla epochs.
    step_size:
        Perturbation update step; defaults to ``epsilon`` (the original
        paper uses the full budget per update).
    warmup_epochs:
        Clean epochs (no replays, no perturbation) before free training
        (see :class:`~repro.defenses.trainer.Trainer`).
    """

    name = "free_adv"

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        epsilon: float,
        replays: int = 4,
        step_size: float = None,
        warmup_epochs: int = 0,
        loss_fn: Callable = cross_entropy,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            model, optimizer, loss_fn=loss_fn,
            warmup_epochs=warmup_epochs, rng=rng,
        )
        check_positive("epsilon", epsilon)
        if replays <= 0:
            raise ValueError(f"replays must be positive, got {replays}")
        self.epsilon = float(epsilon)
        self.replays = int(replays)
        self.step_size = (
            float(step_size) if step_size is not None else self.epsilon
        )
        check_positive("step_size", self.step_size)
        # The ascent direction is the engine's sign rule; the loop driver
        # itself cannot apply here because free training shares ONE
        # backward pass between the parameter update and the perturbation
        # update — the engine would pay a second, redundant backward.
        self._ascent = SignStep(self.step_size)
        # dataset index -> persistent perturbation (delta), not the example.
        self._delta: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _batch_delta(self, batch: Batch) -> np.ndarray:
        rows = []
        for row, index in enumerate(batch.indices):
            delta = self._delta.get(int(index))
            rows.append(
                delta if delta is not None else np.zeros_like(batch.x[row])
            )
        return np.stack(rows)

    def _store_delta(self, batch: Batch, delta: np.ndarray) -> None:
        # Persistent perturbations are cached in the policy compute dtype.
        delta = np.asarray(delta, dtype=compute_dtype())
        for row, index in enumerate(batch.indices):
            self._delta[int(index)] = delta[row]

    @property
    def delta_cache_size(self) -> int:
        """Number of examples with a persistent perturbation."""
        return len(self._delta)

    # ------------------------------------------------------------------
    def train_step(self, batch: Batch) -> List[float]:
        """``m`` replays of the batch, each with one backward pass shared
        by the parameter update and the perturbation update."""
        delta = self._batch_delta(batch)
        x_clean = ensure_float_array(batch.x)
        losses = []
        for _replay in range(self.replays):
            x_adv = clip_to_box(x_clean + delta)
            x_tensor = Tensor(x_adv, requires_grad=True)
            self.optimizer.zero_grad()
            with tel.span("forward"):
                loss = self.loss_fn(self.model(x_tensor), batch.y)
            with tel.span("backward"):
                loss.backward()
            # One backward, two uses: model update ...
            with tel.span("optimizer"):
                self.optimizer.step()
            # ... and perturbation ascent (the engine's sign rule,
            # clamped to the budget in delta space).
            with tel.span("attack"):
                delta = delta + self._ascent(x_tensor.grad)
                np.clip(delta, -self.epsilon, self.epsilon, out=delta)
            losses.append(loss.item())
        self._store_delta(batch, delta)
        return losses
