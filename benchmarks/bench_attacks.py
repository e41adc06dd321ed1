"""Microbenchmarks: attack generation cost.

The paper's efficiency argument rests on generation cost scaling linearly
with the BIM iteration count; these benches measure exactly that on a fixed
batch, using pytest-benchmark's statistical timing.

A second group measures the engine's batched early stopping: a
robust-accuracy sweep with masking on must beat the identical sweep with
masking off by >= 1.2x (fooled examples leave the forward/backward passes,
so the sweep only pays for survivors).  The comparison is written to
``benchmarks/results/attack_earlystop.txt``.
"""

import time

import numpy as np
import pytest

from conftest import save_artifact, save_bench
from repro.attacks import BIM, FGSM, MIM, PGD, build_attack
from repro.data import DataLoader, load_dataset
from repro.defenses import Trainer
from repro.eval import robust_accuracy
from repro.models import mnist_mlp
from repro.optim import Adam


@pytest.fixture(scope="module")
def victim():
    return mnist_mlp(seed=0)


@pytest.fixture(scope="module")
def batch():
    train, _ = load_dataset("digits", train_per_class=13, test_per_class=1, seed=0)
    x, y = train.arrays()
    return x[:128], y[:128]


@pytest.mark.benchmark(group="attack-generation")
def test_fgsm_generation(benchmark, victim, batch):
    x, y = batch
    attack = FGSM(victim, 0.25)
    benchmark(attack.generate, x, y)


@pytest.mark.benchmark(group="attack-generation")
@pytest.mark.parametrize("steps", [5, 10, 30])
def test_bim_generation_scales_with_steps(benchmark, victim, batch, steps):
    x, y = batch
    attack = BIM(victim, 0.25, num_steps=steps)
    benchmark.pedantic(attack.generate, args=(x, y), rounds=3, iterations=1)


@pytest.mark.benchmark(group="attack-generation")
def test_pgd_generation(benchmark, victim, batch):
    x, y = batch
    attack = PGD(victim, 0.25, num_steps=10, rng=0)
    benchmark.pedantic(attack.generate, args=(x, y), rounds=3, iterations=1)


@pytest.mark.benchmark(group="attack-generation")
def test_mim_generation(benchmark, victim, batch):
    x, y = batch
    attack = MIM(victim, 0.25, num_steps=10)
    benchmark.pedantic(attack.generate, args=(x, y), rounds=3, iterations=1)


# ----------------------------------------------------------------------
# Batched early stopping.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_victim():
    """A lightly trained classifier: realistic retirement dynamics (most
    examples are fooled within the first BIM iterations, a few resist)."""
    train, test = load_dataset(
        "digits", train_per_class=30, test_per_class=15, seed=0
    )
    model = mnist_mlp(seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=3)
    return model, test.arrays()


@pytest.mark.benchmark(group="attack-earlystop")
@pytest.mark.parametrize("early_stop", [False, True], ids=["mask-off", "mask-on"])
def test_bim30_earlystop_generation(benchmark, trained_victim, early_stop):
    model, (x, y) = trained_victim
    attack = build_attack(
        "bim", model, epsilon=0.25, num_steps=30, early_stop=early_stop
    )
    benchmark.pedantic(
        attack.generate, args=(x[:128], y[:128]), rounds=3, iterations=1
    )


def test_earlystop_sweep_speedup(trained_victim):
    """The early-stop robust-accuracy sweep must be >= 1.2x faster.

    Runs the same BIM(30) robust-accuracy evaluation over the test split
    with per-example masking on and off (best of three each) and asserts
    the masked sweep wins by the gate margin without weakening the attack
    (early stop freezes fooled examples, it never un-fools them).  The
    rendered comparison is saved as a results artifact.
    """
    model, (x, y) = trained_victim

    def sweep(early_stop):
        attack = build_attack(
            "bim", model, epsilon=0.25, num_steps=30, early_stop=early_stop
        )
        return robust_accuracy(model, attack, x, y, batch_size=128)

    def best_of(early_stop, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            sweep(early_stop)
            best = min(best, time.perf_counter() - start)
        return best

    # Warm both paths (BLAS threads, workspace pool).
    acc_off = sweep(False)
    acc_on = sweep(True)
    t_off = best_of(False)
    t_on = best_of(True)
    speedup = t_off / t_on
    lines = [
        "batched early stop: BIM(30) robust-accuracy sweep, digits test split",
        f"mask off: {t_off * 1000:8.2f} ms/sweep (robust acc {acc_off:.4f})",
        f"mask on:  {t_on * 1000:8.2f} ms/sweep (robust acc {acc_on:.4f})",
        f"speedup (off/on): {speedup:.3f}x  (gate >= 1.2x)",
    ]
    text = "\n".join(lines)
    path = save_artifact("attack_earlystop.txt", text)
    save_bench(
        "attack_earlystop",
        {
            "speedup": (speedup, "x", "higher"),
            "mask_off_ms": (t_off * 1000.0, "ms", None),
            "mask_on_ms": (t_on * 1000.0, "ms", None),
        },
        context={"workload":
                 "BIM(30) robust-accuracy sweep, digits test split"},
    )
    print(f"\n{text}\nsaved: {path}")
    assert acc_on <= acc_off + 1e-9, "early stop must not weaken the attack"
    assert np.isfinite(speedup)
    assert speedup >= 1.2, (
        f"early-stop sweep only {speedup:.2f}x faster than the mask-off "
        "baseline (expected >= 1.2x)"
    )
