"""Tests for the numerical gradient checker — and, through it, every op.

The second half of this module runs ``check_gradients`` over **every**
``Function`` subclass the autograd package registers (including the fused
``SoftmaxCrossEntropy`` loss), with a final exhaustiveness test that fails
when a newly added op has no gradient-check case here, and a reach test
that fails when no trainer or attack applies a registered op.
"""

import numpy as np
import pytest

from repro.attacks import attack_names, build_attack
from repro.autograd import Tensor, check_gradients, numerical_gradient
from repro.autograd import ops_basic, ops_loss, ops_nn, ops_reduce, ops_shape
from repro.autograd.engine import Function
from repro.data import DataLoader, TensorDataset
from repro.defenses import build_trainer, defense_names
from repro.models import MODEL_BUILDERS
from tests.helpers import count_passes


def test_numerical_gradient_of_square():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    grad = numerical_gradient(lambda a: a * a, [x], 0)
    assert np.allclose(grad, 2.0 * x.data, atol=1e-5)


def test_check_gradients_passes_on_correct_op():
    check_gradients(lambda a: a * 2.0, [Tensor(np.array([1.0, -2.0]))])


def test_check_gradients_catches_wrong_backward():
    class BadDouble(Function):
        @staticmethod
        def forward(ctx, a):
            return a * 2.0

        @staticmethod
        def backward(ctx, grad_output):
            return (grad_output * 3.0,)  # wrong: should be * 2

    with pytest.raises(AssertionError, match="gradient mismatch"):
        check_gradients(
            lambda a: BadDouble.apply(a), [Tensor(np.array([1.0, 2.0]))]
        )


def test_check_gradients_coerces_raw_arrays():
    check_gradients(lambda a: a + 1.0, [np.array([1.0, 2.0])])


# --------------------------------------------------------------------------
# Exhaustive per-op gradient checks
# --------------------------------------------------------------------------
# One numerical-vs-analytical case for every Function subclass the autograd
# package registers.  Inputs are chosen away from kinks (ReLU/Abs zeros)
# so the central difference is well defined, and pool inputs use
# irrational-ish values so a +/-eps nudge cannot flip a winner.
# Non-differentiable arguments (labels, shapes, indices) are closed over;
# gradients are checked for every Tensor argument.

_R = np.random.default_rng(7)


def _smooth(*shape):
    """Random values bounded away from 0 and from each other."""
    signs = np.where(_R.random(shape) < 0.5, -1.0, 1.0)
    return signs * (0.2 + _R.random(shape))


_A23 = _smooth(2, 3)
_B23 = _smooth(2, 3)
_IMG = _R.standard_normal((2, 3, 6, 6)) * 1.7  # continuous: no pool ties
_KERNEL = _R.standard_normal((4, 3, 3, 3)) * 0.4
_BIAS = _R.standard_normal(4) * 0.1
_LABELS = np.array([2, 0, 3])

_CASES = {
    # ops_basic -----------------------------------------------------------
    "Add": (lambda a, b: ops_basic.Add.apply(a, b), [_A23, _smooth(3)]),
    "Sub": (lambda a, b: ops_basic.Sub.apply(a, b), [_A23, _smooth(2, 1)]),
    "Mul": (lambda a, b: ops_basic.Mul.apply(a, b), [_A23, _B23]),
    "Neg": (lambda a: ops_basic.Neg.apply(a), [_A23]),
    "Abs": (lambda a: ops_basic.Abs.apply(a), [_A23]),
    # ops_shape -----------------------------------------------------------
    "Reshape": (lambda a: ops_shape.Reshape.apply(a, (3, 2)), [_A23]),
    "Transpose": (lambda a: ops_shape.Transpose.apply(a, (1, 0)), [_A23]),
    "GetItem": (
        lambda a: ops_shape.GetItem.apply(a, (slice(0, 2), [0, 2, 2])),
        [_A23],  # repeated fancy index exercises the scatter-add
    ),
    # ops_reduce ----------------------------------------------------------
    "Sum": (lambda a: ops_reduce.Sum.apply(a, axis=1, keepdims=True), [_A23]),
    "Mean": (lambda a: ops_reduce.Mean.apply(a, axis=0), [_A23]),
    "LogSumExp": (
        lambda a: ops_reduce.LogSumExp.apply(a, axis=-1, keepdims=False),
        [_A23],
    ),
    # ops_loss ------------------------------------------------------------
    "SoftmaxCrossEntropy": (
        lambda logits: ops_loss.SoftmaxCrossEntropy.apply(
            logits, _LABELS, reduction="mean", label_smoothing=0.1
        ),
        [_R.standard_normal((3, 5))],
    ),
    # ops_nn --------------------------------------------------------------
    "MatMul": (
        lambda a, b, row, col: ops_nn.MatMul.apply(a, b)
        + ops_nn.MatMul.apply(row, b)
        + ops_nn.MatMul.apply(a, col),
        # row (1, k) and col (k, 1) hit the two outer-product backward
        # branches; the batched a @ b takes the plain GEMM path.
        [_smooth(2, 3, 4), _smooth(4, 5), _smooth(1, 4), _smooth(4, 1)],
    ),
    "ReLU": (lambda a: ops_nn.ReLU.apply(a), [_A23]),
    "LeakyReLU": (
        lambda a: ops_nn.LeakyReLU.apply(a, negative_slope=0.2), [_A23]
    ),
    "Sigmoid": (lambda a: ops_nn.Sigmoid.apply(a), [_A23]),
    "Tanh": (lambda a: ops_nn.Tanh.apply(a), [_A23]),
    "Conv2d": (
        lambda x, w, b: ops_nn.Conv2d.apply(x, w, b, stride=2, padding=1),
        [_IMG, _KERNEL, _BIAS],
    ),
    "MaxPool2d": (
        lambda x: ops_nn.MaxPool2d.apply(x, kernel_size=2)
        + ops_nn.MaxPool2d.apply(x, kernel_size=3, stride=2, padding=1),
        [_IMG],  # k=2 fast path plus the generic strided/padded path
    ),
    "AvgPool2d": (
        lambda x: ops_nn.AvgPool2d.apply(x, kernel_size=2, padding=1),
        [_IMG],
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_op_gradients(name):
    fn, inputs = _CASES[name]
    check_gradients(fn, [Tensor(np.asarray(x, dtype=float)) for x in inputs])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_outer_product_backward_equals_gemm(dtype):
    """Both length-1-contraction fast paths are bitwise equal to ``@``."""
    row = _smooth(1, 4).astype(dtype)   # a.shape[-2] == 1: grad_b branch
    col = _smooth(4, 1).astype(dtype)   # b.shape[-1] == 1: grad_a branch
    a, b = _smooth(2, 3, 4).astype(dtype), _smooth(4, 5).astype(dtype)

    ctx = ops_nn.MatMul()
    ctx.save_for_backward(row, b)
    grad_out = _smooth(1, 5).astype(dtype)
    _, grad_b = ops_nn.MatMul.backward(ctx, grad_out)
    assert np.array_equal(grad_b, row.T @ grad_out)

    ctx = ops_nn.MatMul()
    ctx.save_for_backward(a, col)
    grad_out = _smooth(2, 3, 1).astype(dtype)
    grad_a, _ = ops_nn.MatMul.backward(ctx, grad_out)
    assert np.array_equal(grad_a, grad_out @ col.T)


def _registered_ops():
    """Names of every ``Function`` subclass the package defines."""

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    return {
        sub.__name__
        for sub in walk(Function)
        if sub.__module__.startswith("repro.")  # skip test-local helpers
    }


def test_every_registered_op_has_a_gradient_case():
    """Adding a Function subclass without a grad-check case fails here."""
    registered = _registered_ops()
    missing = registered - set(_CASES)
    assert not missing, f"ops without a gradient-check case: {sorted(missing)}"
    stale = set(_CASES) - registered
    assert not stale, f"gradient-check cases for unknown ops: {sorted(stale)}"


# Registered ops that no trainer or attack applies, and why each stays.
_UNREACHED_KEPT = {
    "LeakyReLU": "perfbench's tracer wraps nn.LeakyReLU",
    "Sigmoid": "perfbench's tracer wraps nn.Sigmoid",
    "Tanh": "perfbench's tracer wraps nn.Tanh",
    "AvgPool2d": "perfbench's tracer wraps nn.AvgPool2d",
    "Neg": "the composed cross-entropy that test_ops_loss.py checks the "
           "fused loss against negates its log-likelihood",
    "LogSumExp": "log_softmax in that composed reference is built on it",
}


def test_every_registered_op_is_reached_or_kept(digits_small):
    """One tiny epoch of every defense on every zoo model and one
    ``generate`` of every registered attack apply every registered op,
    except the listed ones.  An op that nothing reaches fails here: delete
    it, or list it with the reason it stays."""
    train, test = digits_small
    loader = DataLoader(
        TensorDataset(*(array[:32] for array in train.arrays())),
        batch_size=16,
        rng=0,
    )
    x, y = (array[:8] for array in test.arrays())
    reached = set()
    with count_passes(reached):
        for build_model in MODEL_BUILDERS.values():
            for name in defense_names():
                trainer = build_trainer(name, build_model(seed=0), epsilon=0.2)
                trainer.fit(loader, epochs=1)
        model = MODEL_BUILDERS["small_cnn"](seed=0)
        for name in attack_names():
            build_attack(name, model, epsilon=0.25).generate(x, y)
    unreached = _registered_ops() - {cls.__name__ for cls in reached}
    assert not unreached - set(_UNREACHED_KEPT), (
        f"ops no trainer or attack applies: "
        f"{sorted(unreached - set(_UNREACHED_KEPT))}"
    )
    assert not set(_UNREACHED_KEPT) - unreached, (
        f"kept ops that are now reached: "
        f"{sorted(set(_UNREACHED_KEPT) - unreached)}"
    )
