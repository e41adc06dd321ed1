"""Adversarial-training defenses.

The package implements every Table I row:

* :class:`Trainer` — vanilla (undefended) training.
* :class:`FgsmAdvTrainer` — Single-Adv (Goodfellow et al., 2015).
* :class:`IterAdvTrainer` — Iter-Adv / BIM(k)-Adv (Kurakin et al., 2016).
* :class:`AtdaTrainer` — Single-Adv SOTA baseline (Song et al., 2018).
* :class:`EpochwiseAdvTrainer` — the paper's proposed method.

Build any of them by paper name through :func:`build_trainer`; the list of
canonical names is :func:`defense_names`.
"""

from .adversarial import FgsmAdvTrainer, IterAdvTrainer, MixedAdversarialTrainer
from .atda import AtdaTrainer
from .domain_adaptation import (
    ClassCenters,
    coral_loss,
    covariance,
    margin_center_loss,
    mean_alignment_loss,
)
from .epochwise import EpochwiseAdvTrainer
from .free import FreeAdvTrainer
from .label_smooth import LabelSmoothingTrainer
from .pgd_adv import PgdAdvTrainer
from .registry import (
    EXTENSION_DEFENSES,
    PAPER_DEFENSES,
    build_trainer,
    defense_names,
    register_defense,
)
from .trainer import Trainer, TrainingHistory

__all__ = [
    "Trainer",
    "TrainingHistory",
    "MixedAdversarialTrainer",
    "FgsmAdvTrainer",
    "IterAdvTrainer",
    "AtdaTrainer",
    "EpochwiseAdvTrainer",
    "FreeAdvTrainer",
    "PgdAdvTrainer",
    "LabelSmoothingTrainer",
    "ClassCenters",
    "covariance",
    "coral_loss",
    "mean_alignment_loss",
    "margin_center_loss",
    "PAPER_DEFENSES",
    "EXTENSION_DEFENSES",
    "defense_names",
    "register_defense",
    "build_trainer",
]
