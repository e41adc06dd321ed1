"""Evasion attacks, the attack-iteration engine and the attack registry.

* :class:`AttackLoop` — the composable iteration engine every attack here
  is built on (initializer / gradient estimator / step rule / projection).
* :class:`FGSM` — single-step sign attack (Goodfellow et al., 2015).
* :class:`BIM` — iterative FGSM (Kurakin et al., 2016); central to the
  paper's Figures 1-2 and Table I.  Exposes intermediate iterates.
* :class:`PGD` — BIM with random start (Madry et al., 2017).
* :class:`RandomNoise` — gradient-free noise baseline.
* :func:`build_attack` / :func:`parse_attack_spec` — the single canonical
  registry (``"bim:num_steps=30"`` spec strings) consumed by defenses,
  evaluators, experiments, benchmarks and the CLI.
"""

from .base import Attack, clip_to_box, project, project_linf
from .bim import BIM
from .fgsm import FGSM
from .loop import (
    AttackLoop,
    BackpropGradient,
    BoxProjection,
    GradientStep,
    LinfBoxProjection,
    SignStep,
    SpsaGradient,
    UniformLinfInit,
    zero_init,
)
from .losses import margin_loss
from .noise import RandomNoise
from .pgd import PGD
from .registry import (
    AttackSpec,
    attack_names,
    build_attack,
    canonical_attack_name,
    check_attack_spec,
    parse_attack_spec,
    register_attack,
)
from .spsa import SPSA

__all__ = [
    "Attack",
    "clip_to_box",
    "project",
    "project_linf",
    "FGSM",
    "BIM",
    "PGD",
    "SPSA",
    "RandomNoise",
    "margin_loss",
    # engine
    "AttackLoop",
    "GradientStep",
    "BackpropGradient",
    "SpsaGradient",
    "SignStep",
    "LinfBoxProjection",
    "BoxProjection",
    "UniformLinfInit",
    "zero_init",
    # registry
    "AttackSpec",
    "register_attack",
    "attack_names",
    "canonical_attack_name",
    "parse_attack_spec",
    "check_attack_spec",
    "build_attack",
]
