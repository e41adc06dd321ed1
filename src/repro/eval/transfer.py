"""Black-box transfer-attack evaluation.

White-box robustness (the paper's threat model) can overstate security when
a defense merely masks its gradients; transferred adversarial examples —
generated against an independently trained *surrogate* — are the standard
cross-check (Athalye et al., 2018).  This module measures accuracy of a
victim on examples crafted against a surrogate.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from ..attacks import Attack, AttackSpec, build_attack
from ..nn import Module
from .metrics import accuracy

__all__ = ["transfer_accuracy", "transfer_matrix"]


def _resolve_builder(
    attack_builder: Union[str, AttackSpec, Callable[[Module], Attack]],
    epsilon: Optional[float],
) -> Callable[[Module], Attack]:
    """Accept a registry spec string alongside the classic callable form."""
    if isinstance(attack_builder, (str, AttackSpec)):
        spec = attack_builder
        return lambda model: build_attack(spec, model, epsilon=epsilon)
    return attack_builder


def transfer_accuracy(
    victim: Module,
    surrogate_attack: Attack,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Victim accuracy on examples crafted against ``surrogate_attack.model``.

    ``surrogate_attack`` must be bound to the surrogate model; the victim
    never sees gradients, only the finished adversarial examples.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    correct = 0
    for start in range(0, len(x), batch_size):
        bx = x[start : start + batch_size]
        by = y[start : start + batch_size]
        x_adv = surrogate_attack.generate(bx, by)
        correct += int(np.sum(victim.predict(x_adv) == by))
    return correct / len(x)


def transfer_matrix(
    models: Dict[str, Module],
    attack_builder: Union[str, AttackSpec, Callable[[Module], Attack]],
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
    epsilon: Optional[float] = None,
) -> Dict[str, Dict[str, float]]:
    """Full source x target transfer grid.

    ``attack_builder`` is either a factory ``model -> Attack`` or an
    attack-registry spec string (``"bim:num_steps=10"``), in which case
    ``epsilon`` supplies the budget.  ``result[source][target]`` is the
    accuracy of ``target`` on examples crafted against ``source``.  The
    diagonal is the usual white-box robust accuracy.
    """
    if not models:
        raise ValueError("transfer matrix needs at least one model")
    builder = _resolve_builder(attack_builder, epsilon)
    result: Dict[str, Dict[str, float]] = {}
    for source_name, source in models.items():
        attack = builder(source)
        row: Dict[str, float] = {}
        x_adv_batches = []
        for start in range(0, len(x), batch_size):
            bx = x[start : start + batch_size]
            by = y[start : start + batch_size]
            x_adv_batches.append(attack.generate(bx, by))
        x_adv = np.concatenate(x_adv_batches)
        for target_name, target in models.items():
            predictions = np.concatenate(
                [
                    target.predict(x_adv[start : start + batch_size])
                    for start in range(0, len(x_adv), batch_size)
                ]
            )
            row[target_name] = accuracy(predictions, y)
        result[source_name] = row
    return result
