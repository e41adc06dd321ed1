"""Bit-exact equivalence: engine-based attacks vs the legacy loops.

Each ``_legacy_*`` function below is the pre-refactor implementation
inlined (a function instead of a method, otherwise verbatim).  The engine
rewrites must reproduce them **bit for bit** — ``np.array_equal``, not
``allclose`` — under fixed seeds in float64.  Every attack that supports
targeted mode is checked in both modes.
"""

import numpy as np
import pytest

from repro.attacks import (
    BIM,
    FGSM,
    MIM,
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


@pytest.fixture(scope="module")
def targets(batch):
    _x, y = batch
    return (y + 3) % 10


def _direction(targeted):
    return -1.0 if targeted else 1.0


def _input_gradient(model, x, y):
    x_tensor = Tensor(x, requires_grad=True)
    loss = cross_entropy(model(x_tensor), y)
    loss.backward()
    return x_tensor.grad


# ----------------------------------------------------------------------
# Legacy implementations (pre-refactor generate() bodies).
# ----------------------------------------------------------------------

def _legacy_fgsm(model, x, y, epsilon, targeted=False):
    grad = _input_gradient(model, x, y)
    step = _direction(targeted) * epsilon * np.sign(grad)
    return clip_to_box(x + step)


def _legacy_bim_step(model, x_adv, x_orig, y, epsilon, step_size, targeted):
    grad = _input_gradient(model, x_adv, y)
    moved = x_adv + _direction(targeted) * step_size * np.sign(grad)
    return clip_to_box(project_linf(moved, x_orig, epsilon))


def _legacy_bim(model, x, y, epsilon, num_steps, targeted=False):
    step_size = epsilon / num_steps
    x_adv = x.copy()
    for _ in range(num_steps):
        x_adv = _legacy_bim_step(
            model, x_adv, x, y, epsilon, step_size, targeted
        )
    return x_adv


def _legacy_pgd(
    model, x, y, epsilon, num_steps, rng, random_start=True, targeted=False
):
    step_size = epsilon / num_steps
    if random_start:
        noise = rng.uniform(-epsilon, epsilon, size=x.shape).astype(
            x.dtype, copy=False
        )
        x_adv = clip_to_box(x + noise)
    else:
        x_adv = x.copy()
    for _ in range(num_steps):
        x_adv = _legacy_bim_step(
            model, x_adv, x, y, epsilon, step_size, targeted
        )
    return x_adv


def _legacy_mim(model, x, y, epsilon, num_steps, decay, targeted=False):
    step_size = epsilon / num_steps
    x_adv = x.copy()
    momentum = np.zeros_like(x)
    for _ in range(num_steps):
        grad = _input_gradient(model, x_adv, y)
        flat = np.abs(grad).reshape(len(grad), -1).mean(axis=1)
        flat = np.maximum(flat, 1e-12).reshape((-1,) + (1,) * (grad.ndim - 1))
        momentum = decay * momentum + grad / flat
        moved = x_adv + _direction(targeted) * step_size * np.sign(momentum)
        x_adv = clip_to_box(project_linf(moved, x, epsilon))
    return x_adv


def _legacy_spsa(
    model, x, y, epsilon, num_steps, samples, delta, rng, targeted=False
):
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
        moved = x_adv + _direction(targeted) * step_size * np.sign(grad)
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

@pytest.mark.parametrize("targeted", [False, True])
def test_fgsm_bitwise(model, batch, targets, targeted):
    x, y = batch
    labels = targets if targeted else y
    new = FGSM(model, EPS, targeted=targeted).generate(x, labels)
    old = _legacy_fgsm(model, x, labels, EPS, targeted=targeted)
    assert np.array_equal(new, old)


@pytest.mark.parametrize("targeted", [False, True])
def test_bim_bitwise(model, batch, targets, targeted):
    x, y = batch
    labels = targets if targeted else y
    new = BIM(model, EPS, num_steps=5, targeted=targeted).generate(x, labels)
    old = _legacy_bim(model, x, labels, EPS, num_steps=5, targeted=targeted)
    assert np.array_equal(new, old)


def test_bim_intermediates_bitwise(model, batch):
    x, y = batch
    attack = BIM(model, EPS, num_steps=4)
    iterates = attack.generate_with_intermediates(x, y)
    assert len(iterates) == 4
    step_size = EPS / 4
    x_adv = x.copy()
    for i in range(4):
        x_adv = _legacy_bim_step(model, x_adv, x, y, EPS, step_size, False)
        assert np.array_equal(iterates[i], x_adv)


@pytest.mark.parametrize("targeted", [False, True])
def test_pgd_bitwise(model, batch, targets, targeted):
    x, y = batch
    labels = targets if targeted else y
    new = PGD(
        model, EPS, num_steps=5, rng=11, targeted=targeted
    ).generate(x, labels)
    old = _legacy_pgd(
        model, x, labels, EPS, 5,
        np.random.default_rng(11), targeted=targeted,
    )
    assert np.array_equal(new, old)


def test_pgd_no_random_start_is_bim(model, batch):
    x, y = batch
    new = PGD(model, EPS, num_steps=5, random_start=False).generate(x, y)
    old = _legacy_bim(model, x, y, EPS, num_steps=5)
    assert np.array_equal(new, old)


@pytest.mark.parametrize("targeted", [False, True])
def test_mim_bitwise(model, batch, targets, targeted):
    x, y = batch
    labels = targets if targeted else y
    new = MIM(
        model, EPS, num_steps=5, decay=0.9, targeted=targeted
    ).generate(x, labels)
    old = _legacy_mim(
        model, x, labels, EPS, 5, decay=0.9, targeted=targeted
    )
    assert np.array_equal(new, old)


@pytest.mark.parametrize("targeted", [False, True])
def test_spsa_bitwise(model, batch, targets, targeted):
    x, y = batch
    labels = targets if targeted else y
    new = SPSA(
        model, EPS, num_steps=3, samples=4, delta=0.01, rng=17,
        targeted=targeted,
    ).generate(x[:8], labels[:8])
    old = _legacy_spsa(
        model, x[:8], labels[:8], EPS, 3, 4, 0.01,
        np.random.default_rng(17), targeted=targeted,
    )
    assert np.array_equal(new, old)


def test_noise_bitwise(model, batch):
    x, y = batch
    new = RandomNoise(model, EPS, rng=19).generate(x, y)
    old = _legacy_noise(x, EPS, np.random.default_rng(19))
    assert np.array_equal(new, old)
