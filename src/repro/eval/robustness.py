"""Robustness evaluation: model-versus-attack accuracy grids and curves.

These helpers implement the measurement protocols behind the paper's
artefacts:

* :func:`robust_accuracy` — one (model, attack) cell of Table I.
* :func:`attack_iteration_sweep` — Figure 1: accuracy vs BIM iteration
  count ``N`` with ``eps_step = eps / N``.
* :func:`intermediate_iterate_curve` — Figure 2: accuracy after every
  iterate of a fixed BIM(N) run.
* :class:`RobustnessEvaluator` — a full model x attack grid.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry as tel
from ..attacks import (
    Attack,
    build_attack,
    check_attack_spec,
)
from ..nn import Module
from .metrics import accuracy

__all__ = [
    "clean_accuracy",
    "robust_accuracy",
    "attack_iteration_sweep",
    "intermediate_iterate_curve",
    "RobustnessEvaluator",
]


def _batched(x: np.ndarray, y: np.ndarray, batch_size: int):
    for start in range(0, len(x), batch_size):
        yield x[start : start + batch_size], y[start : start + batch_size]


def clean_accuracy(
    model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 256
) -> float:
    """Accuracy on unperturbed examples."""
    predictions = np.concatenate(
        [model.predict(bx) for bx, _by in _batched(x, y, batch_size)]
    )
    return accuracy(predictions, np.asarray(y))


def robust_accuracy(
    model: Module,
    attack: Attack,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Accuracy of ``model`` on ``attack``-perturbed examples.

    The attack runs white-box against the *same* model that is then used to
    classify (the paper's threat model).
    """
    correct = 0
    for bx, by in _batched(np.asarray(x), np.asarray(y), batch_size):
        x_adv = attack.generate(bx, by)
        correct += int(np.sum(model.predict(x_adv) == by))
    return correct / len(x)


def attack_iteration_sweep(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    iteration_counts: Sequence[int],
    batch_size: int = 256,
    attack: str = "bim",
) -> Dict[int, float]:
    """Figure 1 protocol: accuracy vs ``N`` with ``step = epsilon / N``.

    ``attack`` is any registry spec whose class takes ``num_steps``
    (default BIM, the paper's protocol).  Returns ``{N: accuracy}`` for
    each requested iteration count.
    """
    results: Dict[int, float] = {}
    for n in iteration_counts:
        built = build_attack(
            attack, model, epsilon=epsilon, num_steps=int(n)
        )
        results[int(n)] = robust_accuracy(
            model, built, x, y, batch_size=batch_size
        )
    return results


def intermediate_iterate_curve(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    num_steps: int = 10,
    batch_size: int = 256,
) -> List[float]:
    """Figure 2 protocol: accuracy after each iterate of one BIM(N) run.

    ``result[i]`` is the accuracy on the batch perturbed for ``i + 1``
    iterations with fixed per-step size ``epsilon / num_steps``.
    """
    attack = build_attack("bim", model, epsilon=epsilon, num_steps=num_steps)
    x = np.asarray(x)
    y = np.asarray(y)
    correct = np.zeros(num_steps, dtype=np.int64)
    for bx, by in _batched(x, y, batch_size):
        iterates = attack.generate_with_intermediates(bx, by)
        for step, x_adv in enumerate(iterates):
            correct[step] += int(np.sum(model.predict(x_adv) == by))
    return [float(c / len(x)) for c in correct]


class RobustnessEvaluator:
    """Evaluate a model against a named suite of attacks (a Table I row).

    Parameters
    ----------
    attack_builders:
        Mapping from attack name to a factory ``model -> Attack``.  Factories
        receive the model so the suite can be reused across models.
    batch_size:
        Evaluation batch size.
    """

    def __init__(
        self,
        attack_builders: Dict[str, Callable[[Module], Optional[Attack]]],
        batch_size: int = 256,
    ) -> None:
        if not attack_builders:
            raise ValueError("attack suite must not be empty")
        self.attack_builders = dict(attack_builders)
        self.batch_size = batch_size

    def evaluate(
        self, model: Module, x: np.ndarray, y: np.ndarray
    ) -> Dict[str, float]:
        """Return ``{attack_name: accuracy}``; ``None`` factories mean clean.

        Each (model, attack) cell runs inside an emitted ``eval.cell``
        telemetry span tagged with the attack name and the measured
        accuracy, and counts evaluated examples into ``eval.examples``.
        """
        results: Dict[str, float] = {}
        for name, builder in self.attack_builders.items():
            with tel.span("eval.cell", emit=True, attack=name) as cell:
                attack = builder(model)
                if attack is None:
                    results[name] = clean_accuracy(
                        model, x, y, batch_size=self.batch_size
                    )
                else:
                    results[name] = robust_accuracy(
                        model, attack, x, y, batch_size=self.batch_size
                    )
                cell.note(accuracy=results[name])
            if tel.enabled():
                tel.counter("eval.examples", len(x))
        return results

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[str],
        epsilon: Optional[float] = None,
        batch_size: int = 256,
    ) -> "RobustnessEvaluator":
        """Build a suite from attack-registry spec strings.

        Each spec (``"fgsm"``, ``"bim:num_steps=30"``, ``"original"`` for
        clean accuracy, ...) becomes one column keyed by the spec string
        itself; ``epsilon`` supplies the budget for specs that do not set
        it explicitly.  An unknown attack (``KeyError``) or parameter
        (``ValueError``) is rejected here, before any model is attacked.
        """
        builders: Dict[str, Callable[[Module], Optional[Attack]]] = {}
        for spec in specs:
            parsed = check_attack_spec(spec)  # fail fast, before any attack
            builders[str(spec)] = (
                lambda model, _parsed=parsed: build_attack(
                    _parsed, model, epsilon=epsilon
                )
            )
        return cls(builders, batch_size=batch_size)

    @classmethod
    def paper_suite(cls, epsilon: float, batch_size: int = 256) -> "RobustnessEvaluator":
        """The Table I attack columns: clean, FGSM, BIM(10), BIM(30)."""
        return cls.from_specs(
            ("original", "fgsm", "bim10", "bim30"),
            epsilon=epsilon,
            batch_size=batch_size,
        )
