"""Shared experiment machinery: build data, train defended classifiers.

The three paper artefacts (Figures 1-2, Table I) share the expensive part —
training a set of defended classifiers on a dataset.  :class:`ClassifierPool`
trains each defense lazily and caches the result so one pool can serve all
artefacts of a dataset.  It is the one place that trains a classifier from
an :class:`ExperimentConfig`: ``repro audit`` and ``repro serve`` take their
model from it too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

from ..data import DataLoader, load_dataset
from ..defenses import TrainingHistory, build_trainer
from ..models import FeatureClassifier, build_model
from ..nn import Module
from ..utils.serialization import (
    load_json,
    load_state_dict,
    save_json,
    save_state_dict,
)
from .config import ExperimentConfig

__all__ = ["TrainedDefense", "ClassifierPool"]


@dataclass
class TrainedDefense:
    """A defense trained to completion plus its training record."""

    name: str
    model: Module
    history: TrainingHistory

    @property
    def time_per_epoch(self) -> float:
        """Mean training seconds per epoch for this defense."""
        return self.history.time_per_epoch


class ClassifierPool:
    """Lazily trains and caches defended classifiers for one config.

    Parameters
    ----------
    config:
        Experiment configuration (dataset, model, schedule).
    verbose:
        Print per-epoch progress while training.
    """

    def __init__(self, config: ExperimentConfig, verbose: bool = False) -> None:
        self.config = config
        self.verbose = verbose
        self._cache: Dict[str, TrainedDefense] = {}
        with config.precision_scope():
            self.train_set, self.test_set = load_dataset(
                config.dataset,
                train_per_class=config.train_per_class,
                test_per_class=config.test_per_class,
                seed=config.seed,
            )
            self.test_x, self.test_y = self.test_set.arrays()

    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The pool's resolved perturbation budget."""
        return self.config.resolved_epsilon

    def _make_loader(self) -> DataLoader:
        return DataLoader(
            self.train_set,
            batch_size=self.config.batch_size,
            rng=self.config.seed,
        )

    def _make_model(self) -> FeatureClassifier:
        return build_model(self.config.model, seed=self.config.seed)

    def _trainer_kwargs(self, name: str) -> dict:
        if name == "vanilla":
            return {}
        return {"warmup_epochs": self.config.warmup_epochs}

    # ------------------------------------------------------------------
    def get(self, name: str, **trainer_overrides) -> TrainedDefense:
        """Return the trained defense ``name``, training it on first use.

        ``trainer_overrides`` (e.g. ``reset_interval=5``) bypass the cache:
        ablation variants are always trained fresh and not cached.
        """
        if not trainer_overrides and name in self._cache:
            return self._cache[name]
        with self.config.precision_scope():
            model = self._make_model()
            kwargs = self._trainer_kwargs(name)
            kwargs.update(trainer_overrides)
            trainer = build_trainer(
                name,
                model,
                epsilon=self.epsilon,
                lr=self.config.lr,
                **kwargs,
            )
            history = trainer.fit(
                self._make_loader(),
                epochs=self.config.epochs,
                verbose=self.verbose,
            )
        trained = TrainedDefense(name=name, model=model, history=history)
        if not trainer_overrides:
            self._cache[name] = trained
        return trained

    def get_many(self, names) -> Dict[str, TrainedDefense]:
        """Train (or fetch) several defenses, preserving order."""
        return {name: self.get(name) for name in names}

    # ------------------------------------------------------------------
    # persistence: avoid retraining across processes
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist every cached trained defense (weights + timings)."""
        os.makedirs(directory, exist_ok=True)
        for name, defense in self._cache.items():
            save_state_dict(
                os.path.join(directory, f"{name}.npz"),
                defense.model.state_dict(),
            )
            save_json(
                os.path.join(directory, f"{name}_history.json"),
                {
                    "losses": defense.history.losses,
                    "epoch_seconds": defense.history.epoch_seconds,
                    "eval_accuracy": defense.history.eval_accuracy,
                },
            )

    def load(self, directory: str) -> int:
        """Load previously saved defenses into the cache.

        Returns the number of defenses restored.  Entries whose files are
        missing are skipped (they will train lazily as usual).
        """
        restored = 0
        if not os.path.isdir(directory):
            return restored
        for filename in os.listdir(directory):
            if not filename.endswith(".npz"):
                continue
            name = filename[: -len(".npz")]
            with self.config.precision_scope():
                model = self._make_model()
            model.load_state_dict(
                load_state_dict(os.path.join(directory, filename))
            )
            model.eval()
            history = TrainingHistory()
            history_path = os.path.join(directory, f"{name}_history.json")
            if os.path.exists(history_path):
                payload = load_json(history_path)
                history.losses = list(payload.get("losses", []))
                history.epoch_seconds = list(
                    payload.get("epoch_seconds", [])
                )
                history.eval_accuracy = {
                    int(k): v
                    for k, v in payload.get("eval_accuracy", {}).items()
                }
            self._cache[name] = TrainedDefense(
                name=name, model=model, history=history
            )
            restored += 1
        return restored
