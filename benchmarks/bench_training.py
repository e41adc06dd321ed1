"""Microbenchmarks: per-epoch training cost of every defense.

This isolates the Table I timing column: one epoch of each method on an
identical loader.  The structural expectation is

    vanilla < fgsm_adv ~ proposed < atda < bim10_adv < bim30_adv

with BIM(k)-Adv scaling roughly as ``(k + 2) / 3`` over the single-step
methods.

A second axis compares runtime precision policies: the proposed defense is
timed under float64 and float32 and the speedup written to
``benchmarks/results/dtype_speedup.txt`` — float32 should cut epoch time to
well under 0.8x of float64 on a BLAS-backed numpy.
"""

import time

import numpy as np
import pytest

from conftest import save_artifact, save_bench
from repro.data import DataLoader, load_dataset
from repro.defenses import build_trainer
from repro.models import mnist_mlp
from repro.runtime import precision

DTYPES = ["float64", "float32"]


def _make_loader(dtype="float64"):
    with precision(dtype):
        train, _ = load_dataset(
            "digits", train_per_class=50, test_per_class=1, seed=0
        )
        return DataLoader(train, batch_size=128, rng=0)


@pytest.fixture(scope="module")
def loader():
    return _make_loader()


@pytest.fixture(scope="module")
def loaders():
    """One loader per precision policy (batches pre-cast, no per-batch
    conversion inside the timed region)."""
    return {dtype: _make_loader(dtype) for dtype in DTYPES}


def one_epoch(name, loader, dtype="float64"):
    with precision(dtype):
        model = mnist_mlp(seed=0)
        trainer = build_trainer(name, model, epsilon=0.25, lr=1e-3)
        trainer.train_epoch(loader)


@pytest.mark.benchmark(group="epoch-cost")
@pytest.mark.parametrize(
    "name",
    ["vanilla", "fgsm_adv", "atda", "proposed", "bim10_adv", "bim30_adv"],
)
def test_epoch_cost(benchmark, name, loader):
    benchmark.pedantic(
        one_epoch, args=(name, loader), rounds=2, iterations=1
    )


@pytest.mark.benchmark(group="epoch-cost-dtype")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["proposed", "bim10_adv"])
def test_epoch_cost_dtype(benchmark, name, dtype, loaders):
    benchmark.pedantic(
        one_epoch, args=(name, loaders[dtype], dtype), rounds=2, iterations=1
    )


def test_float32_epoch_speedup(loaders):
    """float32 must deliver a real speedup, not just smaller arrays.

    Times one epoch of the proposed defense under each policy (best of
    three, same loader contents) and asserts the float32 epoch costs at
    most 0.8x the float64 one.  The rendered comparison is saved as a
    results artifact.
    """

    def best_of(dtype, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            one_epoch("proposed", loaders[dtype], dtype)
            best = min(best, time.perf_counter() - start)
        return best

    # Warm both paths once so neither dtype pays first-call setup costs.
    for dtype in DTYPES:
        one_epoch("proposed", loaders[dtype], dtype)
    t64 = best_of("float64")
    t32 = best_of("float32")
    ratio = t32 / t64
    lines = [
        "epoch cost by precision policy (proposed defense, digits)",
        f"float64: {t64 * 1000:8.2f} ms/epoch",
        f"float32: {t32 * 1000:8.2f} ms/epoch",
        f"ratio (float32/float64): {ratio:.3f}  (target <= 0.8)",
    ]
    text = "\n".join(lines)
    path = save_artifact("dtype_speedup.txt", text)
    save_bench(
        "dtype_speedup",
        {
            "ratio": (ratio, "x", "lower"),
            "float64_ms": (t64 * 1000.0, "ms", None),
            "float32_ms": (t32 * 1000.0, "ms", None),
        },
        context={"workload": "proposed defense epoch, digits"},
    )
    print(f"\n{text}\nsaved: {path}")
    assert np.isfinite(ratio)
    assert ratio <= 0.8, (
        f"float32 epoch took {ratio:.2f}x float64 (expected <= 0.8x)"
    )
