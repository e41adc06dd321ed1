"""Tests for the fused softmax cross-entropy graph node.

The fused kernel must be indistinguishable — values and gradients — from
the composed ``nll_loss(log_softmax(x), y)`` chain, under every reduction,
with and without label smoothing, and under both precision policies.
"""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    log_softmax,
    softmax_cross_entropy,
)
from repro.nn import cross_entropy, losses, nll_loss
from repro.runtime import precision

REDUCTIONS = ["mean", "sum", "none"]
SMOOTHINGS = [0.0, 0.1]


def make_case(n=6, c=5, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, c)).astype(dtype)
    labels = rng.integers(0, c, size=n)
    return logits, labels


def composed_cross_entropy(logits, labels, reduction="mean", label_smoothing=0.0):
    """Oracle: ``nll_loss(log_softmax(x), y)``, with label smoothing mixing
    in the uniform target's loss ``-mean(log_probs)``."""
    log_probs = log_softmax(logits, axis=-1)
    per_example = nll_loss(log_probs, labels, reduction="none")
    if label_smoothing > 0.0:
        per_example = (
            (1.0 - label_smoothing) * per_example
            - label_smoothing * log_probs.mean(axis=-1)
        )
    if reduction == "mean":
        return per_example.mean()
    if reduction == "sum":
        return per_example.sum()
    return per_example


class TestFusedMatchesComposed:
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_values_and_grads(self, reduction, smoothing, dtype):
        with precision(dtype):
            logits, labels = make_case(dtype=np.dtype(dtype))
            fused_in = Tensor(logits.copy(), requires_grad=True)
            composed_in = Tensor(logits.copy(), requires_grad=True)
            fused = softmax_cross_entropy(
                fused_in, labels, reduction=reduction,
                label_smoothing=smoothing,
            )
            composed = composed_cross_entropy(
                composed_in, labels, reduction=reduction,
                label_smoothing=smoothing,
            )
            tol = 1e-12 if dtype == "float64" else 1e-5
            assert np.allclose(fused.data, composed.data, atol=tol)
            seed_grad = np.ones_like(fused.data)
            fused.backward(seed_grad)
            composed.backward(seed_grad)
            assert np.allclose(fused_in.grad, composed_in.grad, atol=tol)

    def test_non_unit_output_grad(self):
        logits, labels = make_case()
        fused_in = Tensor(logits.copy(), requires_grad=True)
        composed_in = Tensor(logits.copy(), requires_grad=True)
        seed = np.linspace(0.5, 2.0, logits.shape[0])
        softmax_cross_entropy(fused_in, labels, reduction="none").backward(seed)
        composed_cross_entropy(
            composed_in, labels, reduction="none"
        ).backward(seed)
        assert np.allclose(fused_in.grad, composed_in.grad, atol=1e-12)


class TestGradcheck:
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    def test_against_finite_differences(self, reduction, smoothing):
        logits, labels = make_case(n=4, c=3, seed=1)
        check_gradients(
            lambda t: softmax_cross_entropy(
                t, labels, reduction=reduction, label_smoothing=smoothing
            ),
            [Tensor(logits, requires_grad=True)],
        )

    def test_under_float32_policy(self):
        # check_gradients pins itself to the policy's grad-check dtype, so
        # the fused node must grad-check even when built in a float32 region.
        with precision("float32"):
            logits, labels = make_case(n=4, c=3, seed=2, dtype=np.float32)
            check_gradients(
                lambda t: softmax_cross_entropy(t, labels),
                [Tensor(logits, requires_grad=True)],
            )


class TestNumericalStability:
    def test_huge_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 1e4]])
        labels = np.array([0, 1])
        t = Tensor(logits, requires_grad=True)
        loss = softmax_cross_entropy(t, labels)
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.all(np.isfinite(t.grad))

    def test_probabilities_grad_rows_sum_to_zero(self):
        # d loss / d logits sums to zero per row (softmax minus target).
        logits, labels = make_case()
        t = Tensor(logits, requires_grad=True)
        softmax_cross_entropy(t, labels).backward()
        # Tolerance tracks the accumulation dtype: the suite also runs
        # under a float32 default policy (REPRO_DTYPE=float32 in CI).
        atol = 100 * np.finfo(t.grad.dtype).eps
        assert np.allclose(t.grad.sum(axis=1), 0.0, atol=atol)


class TestDispatchAndValidation:
    def test_cross_entropy_routes_to_fused_on_hot_path(self, monkeypatch):
        # cross_entropy must look the fused node up by its module-global
        # name, so a wrapper installed on ``losses.softmax_cross_entropy``
        # (the benchmark tracer's loss timer) sees every call.
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return softmax_cross_entropy(*args, **kwargs)

        monkeypatch.setattr(losses, "softmax_cross_entropy", spy)
        logits, labels = make_case()
        loss = cross_entropy(Tensor(logits), labels, label_smoothing=0.1)
        assert calls == [{"reduction": "mean", "label_smoothing": 0.1}]
        expected = composed_cross_entropy(
            Tensor(logits), labels, label_smoothing=0.1
        )
        assert np.allclose(loss.data, expected.data, atol=1e-12)

    def test_rejects_bad_logits_shape(self):
        with pytest.raises(ValueError, match=r"logits must be \(N, C\)"):
            softmax_cross_entropy(Tensor(np.zeros(3)), np.array([0]))

    def test_rejects_unknown_reduction(self):
        logits, labels = make_case()
        with pytest.raises(ValueError, match="unknown reduction"):
            softmax_cross_entropy(Tensor(logits), labels, reduction="avg")

    def test_rejects_out_of_range_labels(self):
        logits, _ = make_case(c=5)
        bad = np.array([0, 1, 2, 3, 4, 5])
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(Tensor(logits), bad)

    def test_rejects_bad_smoothing(self):
        logits, labels = make_case()
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(logits), labels, label_smoothing=1.5)
