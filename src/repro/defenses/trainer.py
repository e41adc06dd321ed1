"""Vanilla training loop — the base every defense builds on.

The trainer owns the epoch loop, per-epoch wall-clock timing (the paper's
efficiency metric), optional evaluation hooks, and a ``compute_batch_loss``
extension point which the adversarial-training subclasses override.

Control-flow note (Figure 3a reproduction): for Iter-Adv subclasses the
expensive inner interaction between the example generator and the classifier
happens inside ``compute_batch_loss`` every epoch; the proposed method
(:class:`~repro.defenses.epochwise.EpochwiseAdvTrainer`) replaces that inner
loop with a single step plus a cross-epoch cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import telemetry as tel
from ..autograd import Tensor
from ..data.loader import Batch, DataLoader
from ..nn import Module, cross_entropy
from ..optim import LRScheduler, Optimizer
from ..runtime.workspace import get_workspace
from ..telemetry import ConsoleEvents
from ..utils.timing import EpochTimer

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Record of one training run.

    Attributes
    ----------
    losses:
        Mean training loss per epoch.
    epoch_seconds:
        Wall-clock duration of each epoch (training only, evaluation
        excluded) — Table I's "training time per epoch".
    eval_accuracy:
        Clean test accuracy measured at requested epochs.
    """

    losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    eval_accuracy: Dict[int, float] = field(default_factory=dict)

    @property
    def time_per_epoch(self) -> float:
        """Mean seconds per epoch across the run."""
        if not self.epoch_seconds:
            return 0.0
        return float(np.mean(self.epoch_seconds))

    @property
    def total_time(self) -> float:
        """Total training seconds across recorded epochs."""
        return float(np.sum(self.epoch_seconds))


class Trainer:
    """Vanilla (undefended) training on clean examples.

    Parameters
    ----------
    model:
        Classifier to train.
    optimizer:
        Optimizer bound to the model's parameters.
    loss_fn:
        Classification loss; defaults to softmax cross-entropy.
    scheduler:
        Optional LR scheduler stepped after every epoch.
    """

    name = "vanilla"

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable = cross_entropy,
        scheduler: Optional[LRScheduler] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.scheduler = scheduler
        self.epoch = 0
        self.timer = EpochTimer()

    # ------------------------------------------------------------------
    # extension points
    # ------------------------------------------------------------------
    def compute_batch_loss(self, batch: Batch) -> Tensor:
        """Loss for one batch.  Subclasses add adversarial terms here."""
        logits = self.model(Tensor(batch.x))
        return self.loss_fn(logits, batch.y)

    def on_epoch_start(self, epoch: int) -> None:
        """Hook invoked before each epoch's first batch."""

    def on_epoch_end(self, epoch: int) -> None:
        """Hook invoked after each epoch's last batch."""

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def train_epoch(self, loader: DataLoader) -> float:
        """One pass over the loader; returns the mean batch loss.

        Each batch is traced through telemetry phase spans — ``data``
        (loader fetch), ``forward`` (loss computation; adversarial
        generation nests inside it as ``attack``), ``backward`` and
        ``optimizer`` — which aggregate into the surrounding ``epoch``
        span opened by :meth:`fit`.
        """
        self.model.train()
        self.on_epoch_start(self.epoch)
        losses = []
        iterator = iter(loader)
        while True:
            with tel.span("data"):
                batch = next(iterator, None)
            if batch is None:
                break
            self.optimizer.zero_grad()
            with tel.span("forward"):
                loss = self.compute_batch_loss(batch)
            with tel.span("backward"):
                loss.backward()
            with tel.span("optimizer"):
                self.optimizer.step()
            losses.append(loss.item())
        self.on_epoch_end(self.epoch)
        self.epoch += 1
        if self.scheduler is not None:
            self.scheduler.step()
        return float(np.mean(losses)) if losses else 0.0

    def fit(
        self,
        loader: DataLoader,
        epochs: int,
        eval_fn: Optional[Callable[[Module], float]] = None,
        eval_every: int = 0,
        callbacks: Optional[list] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes.

        Parameters
        ----------
        loader:
            Training batches.
        epochs:
            Number of epochs.
        eval_fn:
            Optional callback ``model -> accuracy``; invoked every
            ``eval_every`` epochs (and after the last epoch).
        eval_every:
            Evaluation period; ``0`` disables periodic evaluation.
        callbacks:
            Objects with ``on_epoch_end(epoch, model, metric) -> bool``
            (e.g. :class:`~repro.defenses.callbacks.Checkpointer`,
            :class:`~repro.defenses.callbacks.EarlyStopping`); returning
            ``True`` stops training early.
        verbose:
            Print a per-epoch progress line.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        callbacks = list(callbacks or [])
        history = TrainingHistory()
        # Verbose fits surface rare telemetry events (checkpoints saved,
        # early stopping) as console lines alongside the progress log.
        events_sink = None
        if verbose:
            events_sink = ConsoleEvents((
                "checkpoint.saved",
                "early_stop.triggered",
                "epochwise.cache_reset",
            ))
            tel.add_sink(events_sink)
        try:
            self._fit_loop(
                loader, epochs, history, eval_fn, eval_every, callbacks,
                verbose,
            )
        finally:
            if events_sink is not None:
                tel.remove_sink(events_sink)
        self.model.eval()
        return history

    def _fit_loop(
        self, loader, epochs, history, eval_fn, eval_every, callbacks, verbose
    ) -> None:
        # Step-parameterised trainers report their paper-style row name
        # (bim10_adv, not iter_adv) so run records keep the rows distinct.
        trainer_name = getattr(self, "name_with_steps", self.name)
        for local_epoch in range(epochs):
            epoch_index = self.epoch
            # The epoch span wraps exactly the EpochTimer region, so the
            # telemetry run record reproduces Table I's time-per-epoch.
            with tel.span(
                "epoch", emit=True, trainer=trainer_name, epoch=epoch_index
            ) as epoch_span:
                self.timer.begin_epoch()
                mean_loss = self.train_epoch(loader)
                elapsed = self.timer.end_epoch()
                epoch_span.note(loss=mean_loss)
            if tel.enabled():
                for name, value in get_workspace().telemetry_gauges().items():
                    tel.gauge(name, value)
            history.losses.append(mean_loss)
            history.epoch_seconds.append(elapsed)
            should_eval = eval_fn is not None and (
                (eval_every and (local_epoch + 1) % eval_every == 0)
                or local_epoch == epochs - 1
            )
            metric = None
            if should_eval:
                self.model.eval()
                metric = float(eval_fn(self.model))
                history.eval_accuracy[self.epoch] = metric
                self.model.train()
            if verbose:
                note = f" acc={metric:.3f}" if metric is not None else ""
                print(
                    f"[{self.name}] epoch {self.epoch}: "
                    f"loss={mean_loss:.4f} ({elapsed:.2f}s){note}"
                )
            stop = False
            for callback in callbacks:
                if callback.on_epoch_end(self.epoch, self.model, metric):
                    stop = True
            if stop:
                break
