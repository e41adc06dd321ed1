"""Figure 1: test accuracy on BIM examples vs number of attack iterations.

Protocol (paper Section II): train Vanilla, FGSM-Adv, BIM(10)-Adv and
BIM(30)-Adv classifiers; attack each with BIM(N) for a sweep of iteration
counts ``N`` at fixed total budget ``eps`` and per-step size ``eps / N``.

Expected shape: Vanilla and FGSM-Adv collapse to (or below) random guessing
within a few iterations; the BIM-Adv classifiers plateau high; every curve
converges quickly in ``N`` — diminishing returns from tinier steps
(empirical property 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..eval import attack_iteration_sweep, format_curve
from ..parallel import parallel_map
from ..utils.serialization import save_json
from .config import ExperimentConfig
from .runner import ClassifierPool

__all__ = ["FIGURE1_CLASSIFIERS", "Figure1Result", "run_figure1"]

FIGURE1_CLASSIFIERS = ("vanilla", "fgsm_adv", "bim10_adv", "bim30_adv")

DEFAULT_ITERATIONS = (1, 2, 3, 4, 5, 8, 10, 15, 20, 30)


@dataclass
class Figure1Result:
    """Accuracy-vs-iterations curves for each classifier."""

    dataset: str
    epsilon: float
    iteration_counts: List[int]
    curves: Dict[str, List[float]] = field(default_factory=dict)

    def render(self) -> str:
        """Render the result as an aligned plain-text artefact."""
        parts = [
            f"Figure 1 ({self.dataset}, eps={self.epsilon}): "
            "test accuracy on BIM(N) examples"
        ]
        for name, ys in self.curves.items():
            parts.append(
                format_curve(
                    self.iteration_counts,
                    ys,
                    x_label="N",
                    y_label="accuracy",
                    title=f"-- {name} --",
                )
            )
        return "\n\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-serialisable form of the result."""
        return {
            "dataset": self.dataset,
            "epsilon": self.epsilon,
            "iteration_counts": self.iteration_counts,
            "curves": self.curves,
        }

    def save(self, path: str) -> None:
        """Write the result as JSON to ``path``."""
        save_json(path, self.to_dict())


def run_figure1(
    config: ExperimentConfig,
    pool: ClassifierPool = None,
    iteration_counts: Sequence[int] = DEFAULT_ITERATIONS,
    verbose: bool = False,
) -> Figure1Result:
    """Train the four classifiers and sweep the BIM iteration count."""
    pool = pool or ClassifierPool(config, verbose=verbose)
    result = Figure1Result(
        dataset=config.dataset,
        epsilon=pool.epsilon,
        iteration_counts=[int(n) for n in iteration_counts],
    )
    def sweep_one(name: str) -> List[float]:
        defense = pool.get(name)
        sweep = attack_iteration_sweep(
            defense.model,
            pool.test_x,
            pool.test_y,
            pool.epsilon,
            result.iteration_counts,
            batch_size=config.eval_batch_size,
        )
        return [sweep[n] for n in result.iteration_counts]

    # With more than one worker, each forked cell trains and sweeps its
    # classifier and ships only the curve back: the trained models stay in
    # the children, so the parent pool's cache is not populated — the
    # figure artefact is the curves, not the weights.  Cells go out
    # costliest first (FIGURE1_CLASSIFIERS runs cheapest first; BIM(30)-Adv
    # trains on 31 passes per batch), so no worker starts the longest cell
    # last while the others sit idle.
    curves = parallel_map(
        sweep_one,
        FIGURE1_CLASSIFIERS[::-1],
        num_workers=config.resolved_workers,
    )[::-1]
    for name, ys in zip(FIGURE1_CLASSIFIERS, curves):
        result.curves[name] = ys
        if verbose:
            print(f"figure1[{config.dataset}] swept {name}")
    return result
