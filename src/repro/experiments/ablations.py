"""Ablations over the proposed method's two design choices.

Section IV motivates two knobs:

* the per-epoch step size ("relatively large per step perturbation" —
  empirical property 1 says don't make it tiny);
* the reset interval (re-syncing the cached examples with the drifting
  classifier).

These sweeps quantify both on this repo's substrate and are exposed as
benchmarks (``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..eval import RobustnessEvaluator, format_percent, format_table
from ..parallel import parallel_map
from ..utils.serialization import save_json
from .config import ExperimentConfig
from .runner import ClassifierPool

__all__ = [
    "AblationResult",
    "run_step_size_ablation",
    "run_reset_interval_ablation",
]

DEFAULT_STEP_FRACTIONS = (1 / 10, 1 / 5, 1 / 2, 1.0)
DEFAULT_RESET_INTERVALS = (5, 10, 20, 0)  # 0 = never reset


@dataclass
class AblationResult:
    """Robust accuracy of the proposed method across one swept knob."""

    dataset: str
    epsilon: float
    knob: str
    values: List[float] = field(default_factory=list)
    accuracy: List[Dict[str, float]] = field(default_factory=list)

    def render(self) -> str:
        """Render the result as an aligned plain-text artefact."""
        headers = [self.knob, "original", "fgsm", "bim10", "bim30"]
        rows = []
        for value, acc in zip(self.values, self.accuracy):
            rows.append(
                [
                    f"{value:g}",
                    *(
                        format_percent(acc[c])
                        for c in ("original", "fgsm", "bim10", "bim30")
                    ),
                ]
            )
        return format_table(
            headers,
            rows,
            title=(
                f"Ablation ({self.dataset}, eps={self.epsilon}): proposed "
                f"method vs {self.knob}"
            ),
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form of the result."""
        return {
            "dataset": self.dataset,
            "epsilon": self.epsilon,
            "knob": self.knob,
            "values": self.values,
            "accuracy": self.accuracy,
        }

    def save(self, path: str) -> None:
        """Write the result as JSON to ``path``."""
        save_json(path, self.to_dict())


def _evaluate_variant(
    pool: ClassifierPool, config: ExperimentConfig, **overrides
) -> Dict[str, float]:
    defense = pool.get("proposed", **overrides)
    suite = RobustnessEvaluator.paper_suite(
        pool.epsilon, batch_size=config.eval_batch_size
    )
    return suite.evaluate(defense.model, pool.test_x, pool.test_y)


def _sweep_variants(
    pool: ClassifierPool,
    config: ExperimentConfig,
    overrides_list: List[dict],
) -> List[Dict[str, float]]:
    """Train and evaluate one ablation variant per override dict.

    With ``config`` resolving to more than one worker the sweep runs one
    grid cell per worker process (:func:`repro.parallel.parallel_map`);
    each forked cell trains its variant exactly as the serial loop would.
    """

    def cell(overrides: dict) -> Dict[str, float]:
        return _evaluate_variant(pool, config, **overrides)

    return parallel_map(
        cell, overrides_list, num_workers=config.resolved_workers
    )


def run_step_size_ablation(
    config: ExperimentConfig,
    pool: Optional[ClassifierPool] = None,
    step_fractions: Sequence[float] = DEFAULT_STEP_FRACTIONS,
    verbose: bool = False,
) -> AblationResult:
    """Sweep the per-epoch step as a fraction of epsilon."""
    pool = pool or ClassifierPool(config, verbose=verbose)
    result = AblationResult(
        dataset=config.dataset,
        epsilon=pool.epsilon,
        knob="step_size/epsilon",
    )
    accuracies = _sweep_variants(
        pool,
        config,
        [
            {"step_size": pool.epsilon * fraction}
            for fraction in step_fractions
        ],
    )
    for fraction, accuracy in zip(step_fractions, accuracies):
        result.values.append(float(fraction))
        result.accuracy.append(accuracy)
        if verbose:
            print(f"ablation step fraction {fraction:g}: {accuracy}")
    return result


def run_reset_interval_ablation(
    config: ExperimentConfig,
    pool: Optional[ClassifierPool] = None,
    reset_intervals: Sequence[int] = DEFAULT_RESET_INTERVALS,
    verbose: bool = False,
) -> AblationResult:
    """Sweep the epoch-wise cache reset interval (0 disables resets)."""
    pool = pool or ClassifierPool(config, verbose=verbose)
    result = AblationResult(
        dataset=config.dataset,
        epsilon=pool.epsilon,
        knob="reset_interval",
    )
    accuracies = _sweep_variants(
        pool,
        config,
        [{"reset_interval": int(interval)} for interval in reset_intervals],
    )
    for interval, accuracy in zip(reset_intervals, accuracies):
        result.values.append(float(interval))
        result.accuracy.append(accuracy)
        if verbose:
            print(f"ablation reset interval {interval}: {accuracy}")
    return result
