"""Experiment configuration.

A single :class:`ExperimentConfig` captures everything needed to rebuild a
paper artefact: dataset, model, training schedule, attack budget.  Presets
exist for the full-fidelity runs (``paper_scale``) and for quick smoke runs
used in tests (``smoke_scale``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Optional

from ..data.synthetic import dataset_epsilon
from ..runtime import precision

__all__ = ["ExperimentConfig", "paper_scale", "smoke_scale"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by all experiment runners.

    Attributes
    ----------
    dataset:
        ``"digits"`` (MNIST substitute) or ``"fashion"`` (Fashion-MNIST
        substitute).
    train_per_class, test_per_class:
        Per-class split sizes.
    model:
        Model-zoo name (see :mod:`repro.models`).
    epochs:
        Training epochs per defense.
    warmup_epochs:
        Clean warmup epochs for the adversarial trainers.
    batch_size, lr, seed:
        Optimisation and reproducibility knobs.
    epsilon:
        Total l_inf budget; ``None`` uses the dataset default.
    eval_batch_size:
        Batch size for robustness evaluation.
    dtype:
        Floating dtype for the whole experiment (``"float32"`` or
        ``"float64"``).  ``None`` inherits the ambient runtime policy.
    workers:
        Grid worker processes for the figure1 and ablation sweeps
        (``--workers`` CLI flag on ``figure1`` and ``ablate``).  ``None``
        defers to the ``REPRO_WORKERS`` environment variable (default
        1 = serial).  Above 1, the sweep runs one grid cell per worker
        (:func:`~repro.parallel.parallel_map`); every classifier still
        trains serially inside its cell, and the other artefacts ignore
        the field.
    """

    dataset: str = "digits"
    train_per_class: int = 200
    test_per_class: int = 40
    model: str = "mnist_mlp"
    epochs: int = 80
    warmup_epochs: int = 5
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    epsilon: Optional[float] = None
    eval_batch_size: int = 256
    dtype: Optional[str] = None
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.dtype is not None and self.dtype not in (
            "float32",
            "float64",
        ):
            raise ValueError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )
        if self.train_per_class <= 0 or self.test_per_class <= 0:
            raise ValueError("split sizes must be positive")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.warmup_epochs < 0:
            raise ValueError(
                f"warmup_epochs must be non-negative, got {self.warmup_epochs}"
            )
        if self.warmup_epochs >= self.epochs:
            raise ValueError(
                "warmup_epochs must be below epochs "
                f"({self.warmup_epochs} >= {self.epochs})"
            )

    @property
    def resolved_epsilon(self) -> float:
        """The explicit epsilon, or the dataset's calibrated default."""
        if self.epsilon is not None:
            return self.epsilon
        return dataset_epsilon(self.dataset)

    def precision_scope(self):
        """Context manager activating this config's precision policy.

        A no-op when ``dtype`` is unset, so experiments run under whatever
        policy the caller (CLI flag, env var, library default) installed.
        """
        if self.dtype is None:
            return contextlib.nullcontext()
        return precision(self.dtype)

    @property
    def resolved_workers(self) -> int:
        """The explicit worker count, else ``REPRO_WORKERS``, else 1."""
        from ..parallel import resolve_workers

        return resolve_workers(self.workers)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def paper_scale(dataset: str = "digits", **overrides) -> ExperimentConfig:
    """Full-fidelity configuration used by the benchmark harness."""
    return ExperimentConfig(dataset=dataset, **overrides)


def smoke_scale(dataset: str = "digits", **overrides) -> ExperimentConfig:
    """Tiny configuration for fast tests (seconds, not minutes)."""
    defaults = dict(
        train_per_class=20,
        test_per_class=10,
        epochs=4,
        warmup_epochs=1,
        batch_size=64,
    )
    defaults.update(overrides)
    return ExperimentConfig(dataset=dataset, **defaults)
