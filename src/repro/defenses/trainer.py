"""Vanilla training loop — the base every defense builds on.

The trainer owns the epoch loop, per-epoch wall-clock timing (the paper's
efficiency metric) and the clean warmup.  Its
extension points are ``compute_batch_loss`` (the adversarial-training
subclasses override it) and ``train_step`` (the whole per-batch update, which
only free adversarial training replaces).

Control-flow note (Figure 3a reproduction): for Iter-Adv subclasses the
expensive inner interaction between the example generator and the classifier
happens inside ``compute_batch_loss`` every epoch; the proposed method
(:class:`~repro.defenses.epochwise.EpochwiseAdvTrainer`) replaces that inner
loop with a single step plus a cross-epoch cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List

import numpy as np

from .. import telemetry as tel
from ..autograd import Tensor
from ..data.loader import Batch, DataLoader
from ..nn import Module, cross_entropy
from ..optim import Optimizer
from ..runtime.workspace import get_workspace
from ..telemetry import ConsoleEvents, Stopwatch
from ..utils.rng import RngLike, ensure_rng

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Record of one training run.

    Attributes
    ----------
    losses:
        Mean training loss per epoch.
    epoch_seconds:
        Wall-clock duration of each epoch — Table I's "training time per
        epoch".
    """

    losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

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
    warmup_epochs:
        Clean epochs before a defense's own step takes over: while
        :attr:`in_warmup`, every trainer runs the vanilla step on
        :meth:`Trainer.compute_batch_loss`, whatever it overrides.
    rng:
        Seed or generator of the defense's training-time randomness
        (:attr:`rng`; PGD's random start draws from it).  ``None`` draws
        fresh entropy, so pass a seed for a reproducible run.
    """

    name = "vanilla"

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable = cross_entropy,
        warmup_epochs: int = 0,
        rng: RngLike = None,
    ) -> None:
        if warmup_epochs < 0:
            raise ValueError(
                f"warmup_epochs must be non-negative, got {warmup_epochs}"
            )
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.warmup_epochs = int(warmup_epochs)
        self.rng = ensure_rng(rng)
        self.epoch = 0

    @property
    def in_warmup(self) -> bool:
        """True while the trainer is still in its clean warmup phase."""
        return self.epoch < self.warmup_epochs

    # ------------------------------------------------------------------
    # extension points
    # ------------------------------------------------------------------
    def compute_batch_loss(self, batch: Batch) -> Tensor:
        """Clean loss for one batch.  Subclasses add adversarial terms
        here; warmup epochs always use this clean loss."""
        logits = self.model(Tensor(batch.x))
        return self.loss_fn(logits, batch.y)

    def on_epoch_start(self, epoch: int) -> None:
        """Hook invoked before each epoch's first batch."""

    def on_epoch_end(self, epoch: int) -> None:
        """Hook invoked after each epoch's last batch."""

    def epoch_attrs(self) -> dict:
        """Settings every ``epoch`` span record carries beside the trainer
        name, so runs of one trainer with different settings stay apart
        in the run record."""
        return {}

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def train_step(self, batch: Batch) -> List[float]:
        """Update the model on one batch; returns one loss per optimizer
        step.

        The step is traced through telemetry phase spans — ``forward``
        (loss computation; adversarial generation nests inside it as
        ``attack``), ``backward`` and ``optimizer``.
        """
        self.optimizer.zero_grad()
        with tel.span("forward"):
            if self.in_warmup:
                loss = Trainer.compute_batch_loss(self, batch)
            else:
                loss = self.compute_batch_loss(batch)
        with tel.span("backward"):
            loss.backward()
        with tel.span("optimizer"):
            self.optimizer.step()
        return [loss.item()]

    def train_epoch(self, loader: DataLoader) -> float:
        """One pass over the loader; returns the mean loss over optimizer
        steps.

        Each loader fetch is traced as a ``data`` span next to the
        :meth:`train_step` phases; all of them aggregate into the
        surrounding ``epoch`` span opened by :meth:`fit`.
        """
        self.on_epoch_start(self.epoch)
        # Warmup epochs take the vanilla step whatever a subclass overrides.
        step = (
            partial(Trainer.train_step, self)
            if self.in_warmup
            else self.train_step
        )
        losses = []
        iterator = iter(loader)
        while True:
            with tel.span("data"):
                batch = next(iterator, None)
            if batch is None:
                break
            losses.extend(step(batch))
        self.on_epoch_end(self.epoch)
        self.epoch += 1
        return float(np.mean(losses)) if losses else 0.0

    def fit(
        self,
        loader: DataLoader,
        epochs: int,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes.

        Parameters
        ----------
        loader:
            Training batches.
        epochs:
            Number of epochs.
        verbose:
            Print a per-epoch progress line.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        history = TrainingHistory()
        # Verbose fits surface the proposed method's cache resets as
        # console lines alongside the progress log.
        events_sink = None
        if verbose:
            events_sink = ConsoleEvents(("epochwise.cache_reset",))
            tel.add_sink(events_sink)
        try:
            self._fit_loop(loader, epochs, history, verbose)
        finally:
            if events_sink is not None:
                tel.remove_sink(events_sink)
        return history

    def _fit_loop(self, loader, epochs, history, verbose) -> None:
        # Step-parameterised trainers report their paper-style row name
        # (bim10_adv, not iter_adv) so run records keep the rows distinct.
        trainer_name = getattr(self, "name_with_steps", self.name)
        attrs = self.epoch_attrs()
        watch = Stopwatch()
        for _ in range(epochs):
            epoch_index = self.epoch
            # The epoch span wraps exactly the stopwatch region, so the
            # telemetry run record reproduces Table I's time-per-epoch.
            with tel.span(
                "epoch", emit=True, trainer=trainer_name, epoch=epoch_index,
                **attrs,
            ) as epoch_span:
                watch.start()
                mean_loss = self.train_epoch(loader)
                elapsed = watch.stop()
                epoch_span.note(loss=mean_loss)
            if tel.enabled():
                for name, value in get_workspace().telemetry_gauges().items():
                    tel.gauge(name, value)
            history.losses.append(mean_loss)
            history.epoch_seconds.append(elapsed)
            if verbose:
                print(
                    f"[{self.name}] epoch {self.epoch}: "
                    f"loss={mean_loss:.4f} ({elapsed:.2f}s)"
                )
