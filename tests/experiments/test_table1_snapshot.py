"""The committed Table I snapshots satisfy the paper's cost claims.

``benchmarks/bench_table1.py`` asserts :func:`cost_shape_violations` when
it re-records ``benchmarks/results/table1_{digits,fashion}.json``; these
tests apply the same check to the committed files, so a snapshot that
breaks a cost claim cannot land.
"""

import os

import pytest

from repro.experiments.table1 import cost_shape_violations
from repro.utils import load_json

RESULTS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "results"
)


@pytest.mark.parametrize("dataset", ["digits", "fashion"])
def test_committed_snapshot_meets_cost_claims(dataset):
    snapshot = load_json(os.path.join(RESULTS, f"table1_{dataset}.json"))
    assert cost_shape_violations(snapshot["time_per_epoch"]) == []


BALANCED = {
    "fgsm_adv": 0.17, "atda": 0.24, "proposed": 0.18,
    "bim10_adv": 0.53, "bim30_adv": 1.37,
}


def test_balanced_costs_pass():
    assert cost_shape_violations(BALANCED) == []


@pytest.mark.parametrize("method,seconds,claim", [
    ("proposed", 0.30, "proposed < atda"),
    ("bim30_adv", 0.90, "bim30_adv / bim10_adv"),
    ("bim30_adv", 1.80, "bim30_adv / bim10_adv"),
    ("fgsm_adv", 0.25, "atda > fgsm_adv"),
])
def test_each_broken_claim_is_reported(method, seconds, claim):
    violations = cost_shape_violations({**BALANCED, method: seconds})
    assert len(violations) == 1 and claim in violations[0]
