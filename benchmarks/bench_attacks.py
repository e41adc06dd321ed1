"""Microbenchmarks: attack generation cost.

The paper's efficiency argument rests on generation cost scaling linearly
with the BIM iteration count; these benches measure exactly that on a fixed
batch, using pytest-benchmark's statistical timing.
"""

import pytest

from repro.attacks import BIM, FGSM, PGD
from repro.data import load_dataset
from repro.models import mnist_mlp


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
