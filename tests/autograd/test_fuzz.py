"""Property-based fuzzing of the autograd engine.

Hypothesis builds random compositions of differentiable operations and
checks every composite against central finite differences — the strongest
guarantee the engine offers: if arbitrary compositions differentiate
correctly, so does any model built from them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, check_gradients

# Unary ops, all smooth everywhere (no kinks for finite differences to
# straddle).
UNARY_OPS = [
    ("sigmoid", lambda t: t.sigmoid()),
    ("tanh", lambda t: t.tanh()),
    ("neg", lambda t: -t),
    ("square", lambda t: t * t),
    ("scale", lambda t: t * 0.5 + 1.0),
    ("mean0", lambda t: t.mean(axis=0, keepdims=True) + t * 0.0 + 1.0),
    ("mean1", lambda t: t * t.mean(axis=1, keepdims=True)),
]

BINARY_OPS = [
    ("add", lambda a, b: a + b),
    ("mul", lambda a, b: a * b),
    ("sub", lambda a, b: a - b),
    ("sub_scaled", lambda a, b: a - 0.5 * b),
]


@st.composite
def op_chain(draw):
    """A random chain of 1-4 unary ops plus one binary combination."""
    ops = draw(
        st.lists(st.sampled_from(UNARY_OPS), min_size=1, max_size=4)
    )
    binary = draw(st.sampled_from(BINARY_OPS))
    return ops, binary


@given(chain=op_chain(), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_composition_gradients(chain, seed):
    ops, (_bname, binary) = chain
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(0.6, 1.8, size=(3, 4)))
    b = Tensor(rng.uniform(0.6, 1.8, size=(3, 4)))

    def fn(x, y):
        out = binary(x, y)
        for _name, op in ops:
            out = op(out)
        return out

    # Discard numerically explosive compositions (e.g. four squarings of
    # a product): finite differences cannot probe them, and they are not
    # what models compute.  Every *stage* must stay bounded — a finite
    # final value can hide an infinite intermediate whose backward
    # produces 0 * inf = nan.
    with np.errstate(all="ignore"):
        stage = binary(a, b)
        stages = [stage]
        for _name, op in ops:
            stage = op(stage)
            stages.append(stage)
    for value in stages:
        assume(
            np.isfinite(value.data).all()
            and np.abs(value.data).max() < 1e6
        )
    assume(np.abs(stages[-1].data).max() < 1e3)

    check_gradients(fn, [a, b], atol=5e-4, rtol=5e-3)


@given(seed=st.integers(0, 10_000), depth=st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_repeated_self_composition(seed, depth):
    """y = x * c applied `depth` times: grad must be exactly c^depth."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.5, 1.5, size=(4,)), requires_grad=True)
    c = 1.01
    y = x
    for _ in range(depth):
        y = y * c
    y.sum().backward()
    assert np.allclose(x.grad, c ** depth)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fan_out_gradient_sums(seed):
    """Using a tensor in k branches must sum the branch gradients."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    x = Tensor(rng.uniform(0.5, 1.5, size=(3,)), requires_grad=True)
    total = x * 0.0
    for i in range(k):
        total = total + x * float(i + 1)
    total.sum().backward()
    expected = sum(range(1, k + 1))
    assert np.allclose(x.grad, expected)
