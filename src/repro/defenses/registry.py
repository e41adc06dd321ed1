"""Defense registry: build any Table I method by its paper name.

Names follow the paper's rows:

* ``"vanilla"``      — undefended training
* ``"fgsm_adv"``     — Single-Adv, Goodfellow et al.
* ``"atda"``         — Single-Adv SOTA baseline, Song et al.
* ``"proposed"``     — the paper's epoch-wise Single-Adv method
* ``"bim10_adv"``    — Iter-Adv with BIM(10)
* ``"bim30_adv"``    — Iter-Adv with BIM(30)

The registry is table-driven: each defense registers one builder, and the
Iter-Adv families are a single *pattern* rather than one row per step
count — any ``bim{N}_adv`` or ``pgd{N}_adv`` name resolves to the
corresponding trainer with ``num_steps=N``, so ``bim7_adv`` works exactly
like the paper's ``bim10_adv``/``bim30_adv`` columns.  Attack *names*
inside the trainers are no longer spelled here at all; the trainers build
their training attacks through the canonical attack registry
(:func:`repro.attacks.build_attack`).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional, Tuple

from ..nn import Module
from ..optim import Adam, Optimizer
from .adversarial import FgsmAdvTrainer, IterAdvTrainer
from .atda import AtdaTrainer
from .epochwise import EpochwiseAdvTrainer
from .free import FreeAdvTrainer
from .label_smooth import LabelSmoothingTrainer
from .pgd_adv import PgdAdvTrainer
from .trades import TradesTrainer
from .trainer import Trainer

__all__ = [
    "PAPER_DEFENSES",
    "EXTENSION_DEFENSES",
    "defense_names",
    "register_defense",
    "build_trainer",
]

# The Table I rows.
PAPER_DEFENSES = (
    "vanilla",
    "fgsm_adv",
    "atda",
    "proposed",
    "bim10_adv",
    "bim30_adv",
)

# Extension baselines beyond the paper (future-work section).
EXTENSION_DEFENSES = ("pgd_adv", "free_adv", "trades", "label_smooth")


# name -> builder(model, optimizer, epsilon, kwargs) -> Trainer
_BUILDERS: Dict[str, Callable[..., Trainer]] = {}

# Iter-Adv families: ``bim{N}_adv`` / ``pgd{N}_adv`` with any step count.
_ITER_FAMILIES: Dict[str, type] = {"bim": IterAdvTrainer, "pgd": PgdAdvTrainer}
_ITER_PATTERN = re.compile(r"(?P<family>[a-z]+)(?P<steps>\d+)_adv")


def register_defense(
    name: str, builder: Callable[..., Trainer]
) -> Callable[..., Trainer]:
    """Register ``builder(model, optimizer, epsilon, **kwargs)`` under a name."""
    _BUILDERS[name.strip().lower()] = builder
    return builder


def defense_names(include_extensions: bool = True) -> Tuple[str, ...]:
    """Canonical defense names (Table I rows, then extensions)."""
    if include_extensions:
        return PAPER_DEFENSES + EXTENSION_DEFENSES
    return PAPER_DEFENSES


register_defense(
    "vanilla", lambda model, optimizer, epsilon, **kw: Trainer(
        model, optimizer, **kw
    )
)
register_defense(
    "fgsm_adv", lambda model, optimizer, epsilon, **kw: FgsmAdvTrainer(
        model, optimizer, epsilon=epsilon, **kw
    )
)
register_defense(
    "atda", lambda model, optimizer, epsilon, **kw: AtdaTrainer(
        model, optimizer, epsilon=epsilon, **kw
    )
)
register_defense(
    "proposed", lambda model, optimizer, epsilon, **kw: EpochwiseAdvTrainer(
        model, optimizer, epsilon=epsilon, **kw
    )
)
register_defense(
    "pgd_adv", lambda model, optimizer, epsilon, **kw: PgdAdvTrainer(
        model, optimizer, epsilon=epsilon, **kw
    )
)
register_defense(
    "free_adv", lambda model, optimizer, epsilon, **kw: FreeAdvTrainer(
        model, optimizer, epsilon=epsilon, **kw
    )
)
register_defense(
    "trades", lambda model, optimizer, epsilon, **kw: TradesTrainer(
        model, optimizer, epsilon=epsilon, **kw
    )
)
# Label smoothing takes no attack budget.
register_defense(
    "label_smooth", lambda model, optimizer, epsilon, **kw: (
        LabelSmoothingTrainer(model, optimizer, **kw)
    )
)


def build_trainer(
    name: str,
    model: Module,
    epsilon: float,
    optimizer: Optional[Optimizer] = None,
    lr: float = 1e-3,
    **kwargs,
) -> Trainer:
    """Construct the trainer for a Table I method.

    Parameters
    ----------
    name:
        One of :func:`defense_names`, or any Iter-Adv pattern name
        ``bim{N}_adv`` / ``pgd{N}_adv``.
    model:
        The classifier to train.
    epsilon:
        Dataset perturbation budget (0.3 digits / 0.2 fashion in the paper).
    optimizer:
        Optional pre-built optimizer; defaults to Adam(lr).
    kwargs:
        Forwarded to the trainer constructor (e.g. ``reset_interval``).
    """
    if optimizer is None:
        optimizer = Adam(model.parameters(), lr=lr)
    key = name.strip().lower()
    builder = _BUILDERS.get(key)
    if builder is not None:
        return builder(model, optimizer, epsilon, **kwargs)
    match = _ITER_PATTERN.fullmatch(key)
    if match and match.group("family") in _ITER_FAMILIES:
        cls = _ITER_FAMILIES[match.group("family")]
        return cls(
            model,
            optimizer,
            epsilon=epsilon,
            num_steps=int(match.group("steps")),
            **kwargs,
        )
    raise KeyError(
        f"unknown defense {name!r}; choose from {defense_names()} "
        f"(bim{{N}}_adv / pgd{{N}}_adv accept any step count)"
    )
