"""Table I: defense comparison — robust accuracy and training time per epoch.

Protocol (paper Section V): train FGSM-Adv, ATDA, the proposed method,
BIM(10)-Adv and BIM(30)-Adv; evaluate each against clean examples, FGSM,
BIM(10) and BIM(30); record mean training time per epoch.

Expected shape (paper's headline):

* all methods retain high clean/FGSM accuracy;
* only ATDA / Proposed / BIM-Adv resist iterative attacks;
* Proposed beats ATDA on the BIM columns while training faster;
* Proposed is competitive with the Iter-Adv methods at a fraction
  (roughly ``3 / (k + 2)``) of their per-epoch cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from ..eval import RobustnessEvaluator, format_percent, format_table
from ..utils.serialization import save_json
from .config import ExperimentConfig
from .runner import ClassifierPool

__all__ = [
    "TABLE1_METHODS",
    "ATTACK_COLUMNS",
    "Table1Result",
    "run_table1",
    "cost_shape_violations",
]

TABLE1_METHODS = ("fgsm_adv", "atda", "proposed", "bim10_adv", "bim30_adv")
ATTACK_COLUMNS = ("original", "fgsm", "bim10", "bim30")


@dataclass
class Table1Result:
    """Accuracy grid plus per-epoch training times for one dataset."""

    dataset: str
    epsilon: float
    accuracy: Dict[str, Dict[str, float]] = field(default_factory=dict)
    time_per_epoch: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Render the result as an aligned plain-text artefact."""
        headers = ["method", *ATTACK_COLUMNS, "s/epoch"]
        rows = []
        for method in self.accuracy:
            cells = [method]
            cells.extend(
                format_percent(self.accuracy[method][col])
                for col in ATTACK_COLUMNS
            )
            cells.append(f"{self.time_per_epoch[method]:.2f}")
            rows.append(cells)
        return format_table(
            headers,
            rows,
            title=(
                f"Table I ({self.dataset}, eps={self.epsilon}): accuracy "
                "under attack and training cost"
            ),
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form of the result."""
        return {
            "dataset": self.dataset,
            "epsilon": self.epsilon,
            "accuracy": self.accuracy,
            "time_per_epoch": self.time_per_epoch,
        }

    def save(self, path: str) -> None:
        """Write the result as JSON to ``path``."""
        save_json(path, self.to_dict())

    # convenience accessors used by the benchmarks/tests -----------------
    def improvement_over(
        self, method: str, baseline: str, column: str
    ) -> float:
        """Accuracy gain of ``method`` over ``baseline`` on one column."""
        return (
            self.accuracy[method][column] - self.accuracy[baseline][column]
        )

    def speedup_over(self, method: str, baseline: str) -> float:
        """Per-epoch time reduction of ``method`` relative to ``baseline``.

        Matches the paper's phrasing "reduces training time by 28.75%":
        ``1 - time(method) / time(baseline)``.
        """
        return 1.0 - self.time_per_epoch[method] / self.time_per_epoch[baseline]


def cost_shape_violations(time_per_epoch: Dict[str, float]) -> list:
    """Table I's per-epoch cost claims that ``time_per_epoch`` breaks.

    The paper's claim is about cost: backward passes per batch are 2 for
    ``fgsm_adv``/``proposed``, about 2 plus loss overhead for ``atda``, and
    ``k + 1`` for BIM(k)-Adv.  Checked in s/epoch:

    * ``bim30_adv > bim10_adv > proposed`` and ``atda > fgsm_adv``;
    * ``proposed < atda``;
    * ``2.0 <= bim30_adv / bim10_adv <= 3.0`` (backward passes give
      31 / 11 ~= 2.8; the shared forward/eval overhead pulls it lower).

    Returns one message per violated claim; empty when all hold.
    """
    t = time_per_epoch
    ratio = t["bim30_adv"] / t["bim10_adv"]
    claims = [
        (t["bim30_adv"] > t["bim10_adv"] > t["proposed"],
         "bim30_adv > bim10_adv > proposed"),
        (t["atda"] > t["fgsm_adv"], "atda > fgsm_adv"),
        (t["proposed"] < t["atda"], "proposed < atda"),
        (2.0 <= ratio <= 3.0,
         f"2.0 <= bim30_adv / bim10_adv <= 3.0 (got {ratio:.2f})"),
    ]
    return [
        f"{message} fails for s/epoch {t}" for held, message in claims
        if not held
    ]


def run_table1(
    config: ExperimentConfig,
    pool: ClassifierPool = None,
    methods: Sequence[str] = TABLE1_METHODS,
    verbose: bool = False,
) -> Table1Result:
    """Train all Table I methods on one dataset and evaluate the grid."""
    pool = pool or ClassifierPool(config, verbose=verbose)
    suite = RobustnessEvaluator.paper_suite(
        pool.epsilon, batch_size=config.eval_batch_size
    )
    result = Table1Result(dataset=config.dataset, epsilon=pool.epsilon)
    for name in methods:
        defense = pool.get(name)
        result.accuracy[name] = suite.evaluate(
            defense.model, pool.test_x, pool.test_y
        )
        result.time_per_epoch[name] = defense.time_per_epoch
        if verbose:
            print(f"table1[{config.dataset}] evaluated {name}")
    return result
