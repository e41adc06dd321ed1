"""Tests for the numerical gradient checker — and, through it, every op.

The second half of this module runs ``check_gradients`` over **every**
``Function`` subclass the autograd package registers (including the fused
``SoftmaxCrossEntropy`` loss), with a final exhaustiveness test that fails
when a newly added op has no gradient-check case here.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, numerical_gradient
from repro.autograd import ops_basic, ops_loss, ops_nn, ops_reduce, ops_shape
from repro.autograd.engine import Function


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
# package registers.  Inputs are chosen away from kinks (ReLU/Abs zeros,
# clip bounds, max/min ties) so the central difference is well defined, and
# pool/argmax inputs use irrational-ish values so a +/-eps nudge cannot flip
# a winner.  Non-differentiable arguments (labels, masks, shapes, indices)
# are closed over; gradients are checked for every Tensor argument.

_R = np.random.default_rng(7)


def _smooth(*shape):
    """Random values bounded away from 0 and from each other."""
    signs = np.where(_R.random(shape) < 0.5, -1.0, 1.0)
    return signs * (0.2 + _R.random(shape))


_A23 = _smooth(2, 3)
_B23 = _smooth(2, 3)
_P23 = 0.2 + _R.random((2, 3))  # strictly positive (Log/Sqrt/Pow)
_SEP = _A23 + np.where(_R.random((2, 3)) < 0.5, -0.3, 0.3)  # |a-b| >= 0.3
_COND = np.array([[True, False, True], [False, True, False]])
_IMG = _R.standard_normal((2, 3, 6, 6)) * 1.7  # continuous: no pool ties
_KERNEL = _R.standard_normal((4, 3, 3, 3)) * 0.4
_BIAS = _R.standard_normal(4) * 0.1
_LABELS = np.array([2, 0, 3])
_DISTINCT = _R.permutation(24).astype(float).reshape(2, 3, 4) * 0.37

_CASES = {
    # ops_basic -----------------------------------------------------------
    "Add": (lambda a, b: ops_basic.Add.apply(a, b), [_A23, _smooth(3)]),
    "Sub": (lambda a, b: ops_basic.Sub.apply(a, b), [_A23, _smooth(2, 1)]),
    "Mul": (lambda a, b: ops_basic.Mul.apply(a, b), [_A23, _B23]),
    "Div": (lambda a, b: ops_basic.Div.apply(a, b), [_A23, _B23]),
    "Neg": (lambda a: ops_basic.Neg.apply(a), [_A23]),
    "Exp": (lambda a: ops_basic.Exp.apply(a), [_A23]),
    "Log": (lambda a: ops_basic.Log.apply(a), [_P23]),
    "Sqrt": (lambda a: ops_basic.Sqrt.apply(a), [_P23]),
    "Abs": (lambda a: ops_basic.Abs.apply(a), [_A23]),
    "Pow": (lambda a: ops_basic.Pow.apply(a, 1.7), [_P23]),
    "Clip": (
        lambda a: ops_basic.Clip.apply(a * 3.0, -1.0, 1.0),
        [_A23],  # scaled so interior/exterior elements sit away from +/-1
    ),
    "Maximum": (lambda a, b: ops_basic.Maximum.apply(a, b), [_A23, _SEP]),
    "Minimum": (lambda a, b: ops_basic.Minimum.apply(a, b), [_A23, _SEP]),
    "Where": (
        lambda a, b: ops_basic.Where.apply(_COND, a, b),
        [_A23, _smooth(3)],
    ),
    # ops_shape -----------------------------------------------------------
    "Reshape": (lambda a: ops_shape.Reshape.apply(a, (3, 2)), [_A23]),
    "Transpose": (lambda a: ops_shape.Transpose.apply(a, (1, 0)), [_A23]),
    "GetItem": (
        lambda a: ops_shape.GetItem.apply(a, (slice(0, 2), [0, 2, 2])),
        [_A23],  # repeated fancy index exercises the scatter-add
    ),
    "Concat": (
        lambda a, b: ops_shape.Concat.apply(a, b, axis=1),
        [_A23, _smooth(2, 2)],
    ),
    "Pad": (
        lambda a: ops_shape.Pad.apply(a, ((1, 0), (2, 1))),
        [_A23],
    ),
    "BroadcastTo": (
        lambda a: ops_shape.BroadcastTo.apply(a, (4, 2, 3)),
        [_smooth(2, 1)],
    ),
    # ops_reduce ----------------------------------------------------------
    "Sum": (lambda a: ops_reduce.Sum.apply(a, axis=1, keepdims=True), [_A23]),
    "Mean": (lambda a: ops_reduce.Mean.apply(a, axis=0), [_A23]),
    "MaxMin": (
        lambda a: ops_reduce.MaxMin.apply(a, axis=2, mode="max")
        + ops_reduce.MaxMin.apply(a, mode="min"),
        [_DISTINCT],
    ),
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
    "Softmax": (lambda a: ops_nn.Softmax.apply(a, axis=-1), [_A23]),
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


def test_every_registered_op_has_a_gradient_case():
    """Adding a Function subclass without a grad-check case fails here."""

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    registered = {
        sub.__name__
        for sub in walk(Function)
        if sub.__module__.startswith("repro.")  # skip test-local helpers
    }
    missing = registered - set(_CASES)
    assert not missing, f"ops without a gradient-check case: {sorted(missing)}"
    stale = set(_CASES) - registered
    assert not stale, f"gradient-check cases for unknown ops: {sorted(stale)}"
