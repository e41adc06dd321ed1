"""Bit-exact equivalence: engine-based attacks vs the legacy loops.

Each ``_legacy_*`` function below is the pre-refactor implementation
inlined (a function instead of a method, otherwise verbatim).  The engine
rewrites must reproduce them **bit for bit** — ``np.array_equal``, not
``allclose`` — under fixed seeds in float64.
"""

import numpy as np
import pytest

from repro.attacks import (
    BIM,
    FGSM,
    PGD,
    SPSA,
    RandomNoise,
    clip_to_box,
    project_linf,
)
from repro.autograd import Tensor, no_grad
from repro.models import mnist_mlp
from repro.nn import cross_entropy

EPS = 0.25


@pytest.fixture(scope="module")
def model(digits_small):
    train, _test = digits_small
    return mnist_mlp(seed=0)


@pytest.fixture(scope="module")
def batch(digits_small):
    train, _test = digits_small
    x, y = train.arrays()
    x = np.asarray(x, dtype=np.float64)[:24]
    y = np.asarray(y)[:24]
    return x, y


def _input_gradient(model, x, y):
    x_tensor = Tensor(x, requires_grad=True)
    loss = cross_entropy(model(x_tensor), y)
    loss.backward()
    return x_tensor.grad


# ----------------------------------------------------------------------
# Legacy implementations (pre-refactor generate() bodies).
# ----------------------------------------------------------------------

def _legacy_fgsm(model, x, y, epsilon):
    grad = _input_gradient(model, x, y)
    step = epsilon * np.sign(grad)
    return clip_to_box(x + step)


def _legacy_bim_step(model, x_adv, x_orig, y, epsilon, step_size):
    grad = _input_gradient(model, x_adv, y)
    moved = x_adv + step_size * np.sign(grad)
    return clip_to_box(project_linf(moved, x_orig, epsilon))


def _legacy_bim(model, x, y, epsilon, num_steps):
    step_size = epsilon / num_steps
    x_adv = x.copy()
    for _ in range(num_steps):
        x_adv = _legacy_bim_step(model, x_adv, x, y, epsilon, step_size)
    return x_adv


def _legacy_pgd(model, x, y, epsilon, num_steps, rng):
    step_size = epsilon / num_steps
    noise = rng.uniform(-epsilon, epsilon, size=x.shape).astype(
        x.dtype, copy=False
    )
    x_adv = clip_to_box(x + noise)
    for _ in range(num_steps):
        x_adv = _legacy_bim_step(model, x_adv, x, y, epsilon, step_size)
    return x_adv


def _legacy_spsa(model, x, y, epsilon, num_steps, samples, delta, rng):
    step_size = 2.0 * epsilon / num_steps

    def loss_values(x_probe):
        with no_grad():
            logits = model(Tensor(x_probe))
            return cross_entropy(logits, y, reduction="none").data

    def estimate_gradient(x_probe):
        estimate = np.zeros_like(x_probe)
        for _ in range(samples):
            direction = rng.choice([-1.0, 1.0], size=x_probe.shape).astype(
                x_probe.dtype, copy=False
            )
            plus = loss_values(x_probe + delta * direction)
            minus = loss_values(x_probe - delta * direction)
            diff = (plus - minus) / (2.0 * delta)
            estimate += (
                diff.reshape((-1,) + (1,) * (x_probe.ndim - 1)) * direction
            )
        return estimate / samples

    x_adv = x.copy()
    for _ in range(num_steps):
        grad = estimate_gradient(x_adv)
        moved = x_adv + step_size * np.sign(grad)
        x_adv = clip_to_box(project_linf(moved, x, epsilon))
    return x_adv


def _legacy_noise(x, epsilon, rng):
    noise = rng.uniform(-epsilon, epsilon, size=x.shape).astype(
        x.dtype, copy=False
    )
    return clip_to_box(x + noise)


# ----------------------------------------------------------------------
# Equivalence checks.
# ----------------------------------------------------------------------

def test_fgsm_bitwise(model, batch):
    x, y = batch
    new = FGSM(model, EPS).generate(x, y)
    old = _legacy_fgsm(model, x, y, EPS)
    assert np.array_equal(new, old)


def test_bim_bitwise(model, batch):
    x, y = batch
    new = BIM(model, EPS, num_steps=5).generate(x, y)
    old = _legacy_bim(model, x, y, EPS, num_steps=5)
    assert np.array_equal(new, old)


def test_bim_intermediates_bitwise(model, batch):
    x, y = batch
    attack = BIM(model, EPS, num_steps=4)
    iterates = attack.generate_with_intermediates(x, y)
    assert len(iterates) == 4
    step_size = EPS / 4
    x_adv = x.copy()
    for i in range(4):
        x_adv = _legacy_bim_step(model, x_adv, x, y, EPS, step_size)
        assert np.array_equal(iterates[i], x_adv)


def test_pgd_bitwise(model, batch):
    x, y = batch
    new = PGD(model, EPS, num_steps=5, rng=11).generate(x, y)
    old = _legacy_pgd(model, x, y, EPS, 5, np.random.default_rng(11))
    assert np.array_equal(new, old)


def test_spsa_bitwise(model, batch):
    x, y = batch
    new = SPSA(
        model, EPS, num_steps=3, samples=4, delta=0.01, rng=17,
    ).generate(x[:8], y[:8])
    old = _legacy_spsa(
        model, x[:8], y[:8], EPS, 3, 4, 0.01, np.random.default_rng(17),
    )
    assert np.array_equal(new, old)


def test_noise_bitwise(model, batch):
    x, y = batch
    new = RandomNoise(model, EPS, rng=19).generate(x, y)
    old = _legacy_noise(x, EPS, np.random.default_rng(19))
    assert np.array_equal(new, old)
