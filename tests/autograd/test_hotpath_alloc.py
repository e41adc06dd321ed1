"""Allocation-regression tests for the hot-path training step.

Once the workspace pool is warm, a training step must serve every scratch
buffer from the pool (the miss counter stays put) and the backward pass
must stay within a small, fixed budget of explicit array allocations —
catching regressions that quietly reintroduce per-step allocation churn.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import mnist_cnn
from repro.nn import cross_entropy
from repro.runtime import clear_workspace, get_workspace, precision


@pytest.fixture(autouse=True)
def _clean_pool():
    clear_workspace()
    yield
    clear_workspace()


def batch(n=16):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(n, 1, 28, 28))
    y = rng.integers(0, 10, size=n)
    return x, y


def train_step(model, x, y):
    model.zero_grad()
    loss = cross_entropy(model(Tensor(x)), y)
    loss.backward()
    return loss


def test_warm_step_serves_all_buffers_from_pool():
    x, y = batch()
    with precision("float64"):
        model = mnist_cnn(seed=0)
        for _ in range(2):
            train_step(model, x, y)
        workspace = get_workspace()
        misses_before = workspace.misses
        hits_before = workspace.hits
        train_step(model, x, y)
        assert workspace.misses == misses_before, (
            "a warmed training step allocated fresh workspace buffers "
            f"({workspace.misses - misses_before} pool misses)"
        )
        assert workspace.hits > hits_before


def test_backward_allocation_budget(monkeypatch):
    """Count explicit np.empty/np.zeros/np.*_like calls during backward.

    The engine and kernels may allocate escaping results (gradients handed
    to ``.grad``), but the total must stay small and fixed; allocation in a
    loop over graph nodes would blow well past this bound.
    """
    x, y = batch()
    with precision("float64"):
        model = mnist_cnn(seed=0)
        for _ in range(2):
            train_step(model, x, y)
        model.zero_grad()
        loss = cross_entropy(model(Tensor(x)), y)

        counts = {"n": 0}

        def counting(real):
            def wrapper(*args, **kwargs):
                counts["n"] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("empty", "zeros", "ones", "empty_like",
                     "zeros_like", "ones_like"):
            monkeypatch.setattr(np, name, counting(getattr(np, name)))
        loss.backward()
    # Escaping allocations per backward of the 2-conv/2-pool/2-dense CNN:
    # the root seed, per-layer image gradients and the leaf .grad copies.
    assert counts["n"] <= 24, (
        f"backward() made {counts['n']} explicit array allocations "
        "(budget 24) — a hot-path buffer stopped being pooled"
    )


def test_repeated_steps_do_not_grow_the_pool():
    x, y = batch()
    with precision("float64"):
        model = mnist_cnn(seed=0)
        for _ in range(2):
            train_step(model, x, y)
        workspace = get_workspace()
        cached = workspace.cached_buffers
        for _ in range(3):
            train_step(model, x, y)
        assert workspace.cached_buffers == cached, (
            "steady-state training grew the free-buffer pool: buffers are "
            "being acquired under one shape and released under another"
        )
