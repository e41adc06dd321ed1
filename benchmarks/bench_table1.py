"""Benchmark regenerating Table I (both datasets).

Table I reports, per defense: accuracy on {clean, FGSM, BIM(10), BIM(30)}
plus training time per epoch.  This bench trains every method (via the
shared pool), evaluates the grid, prints the rendered table and saves it to
``benchmarks/results/``.

Expected shape versus the paper (absolute numbers differ — see DESIGN.md):
  * every method holds high clean accuracy;
  * FGSM-Adv collapses on the BIM columns; ATDA / Proposed / BIM-Adv resist;
  * Proposed > ATDA on BIM columns at lower per-epoch cost;
  * per-epoch time: proposed ~ fgsm_adv < atda < bim10_adv < bim30_adv.

Above smoke scale the bench asserts the per-epoch cost claims
(:func:`~repro.experiments.table1.cost_shape_violations`: the time
ordering, proposed < atda, and 2.0 <= bim30_adv / bim10_adv <= 3.0) and, on
BIM(10), proposed > atda, with fgsm_adv strictly lowest on digits, so
re-recording the snapshot re-verifies the paper's shape instead of only
rendering it.  A tier-1 test applies the same cost checks to the committed
``results/table1_*.json``.
"""

import os

import pytest

from repro.experiments import run_table1
from repro.experiments.table1 import cost_shape_violations

from conftest import save_artifact

SHAPE_CHECKS = os.environ.get("REPRO_BENCH_SCALE", "medium") != "smoke"


def _run(pool):
    return run_table1(pool.config, pool=pool)


@pytest.mark.benchmark(group="table1")
@pytest.mark.parametrize("dataset", ["digits", "fashion"])
def test_table1(benchmark, dataset, digits_pool, fashion_pool):
    pool = digits_pool if dataset == "digits" else fashion_pool
    result = benchmark.pedantic(
        _run, args=(pool,), rounds=1, iterations=1
    )
    text = result.render()
    lines = [
        text,
        "",
        "paper-shape checkpoints:",
        (
            "  proposed - atda on bim10: "
            f"{100 * result.improvement_over('proposed', 'atda', 'bim10'):+.2f} pts"
        ),
        (
            "  proposed vs atda time/epoch: "
            f"{100 * result.speedup_over('proposed', 'atda'):+.1f}% saved"
        ),
        (
            "  proposed vs bim30_adv time/epoch: "
            f"{100 * result.speedup_over('proposed', 'bim30_adv'):+.1f}% saved"
        ),
    ]
    report = "\n".join(lines)
    print("\n" + report)
    path = save_artifact(f"table1_{dataset}.txt", report)
    result.save(path.replace(".txt", ".json"))

    if not SHAPE_CHECKS:
        return  # smoke-scale timings are too noisy to assert on
    # Structural assertions (shape, not absolute numbers).
    assert cost_shape_violations(result.time_per_epoch) == []
    bim10 = {method: row["bim10"] for method, row in result.accuracy.items()}
    assert bim10["proposed"] > bim10["atda"]
    if dataset == "digits":
        # On the fashion substitute the ATDA row falls below FGSM-Adv,
        # a deviation from the paper recorded in EXPERIMENTS.md.
        others = [acc for method, acc in bim10.items() if method != "fgsm_adv"]
        assert bim10["fgsm_adv"] < min(others)
