"""Composable attack-iteration engine.

Every iterative evasion attack in this library is the same loop wearing a
different hat::

    x_0 = initializer(x)
    for i in 0..N-1:
        g   = estimator(x_i, y)         # backprop or SPSA
        x'  = x_i + step_rule(g)        # sign step
        x_{i+1} = projection(x', x)     # fused norm-ball + box clip

:class:`AttackLoop` factors that loop out once, so the concrete attacks in
this package are thin declarative compositions of four pluggable pieces:

* **initializers** — where the iterate starts (:func:`zero_init`,
  :class:`UniformLinfInit`, or a carried iterate passed via ``start=``);
* **gradient estimators** — :class:`BackpropGradient` (white-box) and
  :class:`SpsaGradient` (finite differences, no backprop), both called
  as ``estimator(x, y)``;
* **step rules** — :class:`SignStep`, called as ``rule(grad)``;
* **projections** — :class:`LinfBoxProjection` (the l_inf-ball
  projection and the image-box clip fused into one in-place pass over
  the moved iterate) and :class:`BoxProjection` (the box clip alone).

The backprop estimator takes input gradients only: it runs its forward
and backward inside :func:`~repro.attacks.base.frozen_parameters`, so an
attack step never computes a weight or bias gradient and never writes to
``param.grad``.  A trainer that crafts its adversarial half this way gets
an update that is the gradient of its training loss alone.

The loop is numerically *identical* — bit-for-bit, not merely close — to
the pre-engine hand-rolled attack loops; the equivalence suite in
``tests/attacks/test_equivalence.py`` pins exactly that.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from .. import telemetry as tel
from ..autograd import Tensor, no_grad
from ..nn import cross_entropy
from ..runtime import ensure_float_array
from .base import frozen_parameters, project

__all__ = [
    "zero_init",
    "UniformLinfInit",
    "BackpropGradient",
    "SpsaGradient",
    "SignStep",
    "LinfBoxProjection",
    "BoxProjection",
    "GradientStep",
    "AttackLoop",
]


# ----------------------------------------------------------------------
# Initializers: (x_orig) -> starting iterate (always a fresh array).
# ----------------------------------------------------------------------

def zero_init(x: np.ndarray) -> np.ndarray:
    """Start from the clean example (BIM, FGSM, SPSA)."""
    return x.copy()


class UniformLinfInit:
    """Uniform random start inside the l_inf ball (PGD), box-clipped."""

    def __init__(self, epsilon, rng, clip_min=0.0, clip_max=1.0) -> None:
        self.epsilon = float(epsilon)
        self.rng = rng
        self.clip_min = float(clip_min)
        self.clip_max = float(clip_max)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        noise = self.rng.uniform(
            -self.epsilon, self.epsilon, size=x.shape
        ).astype(x.dtype, copy=False)
        return np.clip(x + noise, self.clip_min, self.clip_max)


# ----------------------------------------------------------------------
# Gradient estimators: (x, y) -> input-gradient estimate shaped like x.
# ----------------------------------------------------------------------

class BackpropGradient:
    """White-box gradient of the loss w.r.t. the input batch (one fwd + bwd).

    No dtype cast: perturbation math runs in the input's own floating
    dtype (the policy decides it upstream, when the batch is created).
    """

    def __init__(self, model, loss_fn: Callable = cross_entropy) -> None:
        self.model = model
        self.loss_fn = loss_fn

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x_tensor = Tensor(ensure_float_array(x), requires_grad=True)
        with frozen_parameters(self.model):
            logits = self.model(x_tensor)
            loss = self.loss_fn(logits, y)
            loss.backward()
        grad = x_tensor.grad
        if grad is None:
            raise RuntimeError(
                "input received no gradient; is the model differentiable?"
            )
        return grad


class SpsaGradient:
    """SPSA finite-difference estimate: Rademacher probes, no backprop.

    Each of the ``samples`` probe pairs costs two forward passes; the
    estimate averages the directional finite differences.  Never touches
    model gradients, so it penetrates gradient masking.
    """

    def __init__(
        self,
        model,
        loss_fn: Callable = cross_entropy,
        samples: int = 16,
        delta: float = 0.01,
        rng=None,
    ) -> None:
        self.model = model
        self.loss_fn = loss_fn
        self.samples = int(samples)
        self.delta = float(delta)
        self.rng = rng

    def _loss_values(self, x, y) -> np.ndarray:
        with no_grad():
            logits = self.model(Tensor(x))
            per_example = self.loss_fn(logits, y, reduction="none")
        return per_example.data

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        estimate = np.zeros_like(x)
        for _ in range(self.samples):
            direction = self.rng.choice([-1.0, 1.0], size=x.shape).astype(
                x.dtype, copy=False
            )
            plus = self._loss_values(x + self.delta * direction, y)
            minus = self._loss_values(x - self.delta * direction, y)
            diff = (plus - minus) / (2.0 * self.delta)
            estimate += diff.reshape((-1,) + (1,) * (x.ndim - 1)) * direction
        return estimate / self.samples


# ----------------------------------------------------------------------
# Step rules: gradient -> update vector.
# ----------------------------------------------------------------------

class SignStep:
    """l_inf steepest ascent: ``step_size * sign(grad)``."""

    def __init__(self, step_size: float) -> None:
        self.step_size = float(step_size)

    def __call__(self, grad: np.ndarray) -> np.ndarray:
        return self.step_size * np.sign(grad)


# ----------------------------------------------------------------------
# Projections: fused norm-ball + box clip, in place on the moved iterate.
# ----------------------------------------------------------------------

class LinfBoxProjection:
    """Project onto the l_inf ball around ``x_orig``, then the image box.

    Both clips run in one fused pass over the (freshly allocated) moved
    iterate; the ball projection stays in delta form — ``x + clip(x' - x)``
    — because the single-``np.clip``-with-array-bounds formulation is *not*
    bit-identical in floating point (``x + (x' - x) != x'``), and the
    engine guarantees exact equivalence with the legacy two-call pattern.
    """

    def __init__(self, epsilon, clip_min=0.0, clip_max=1.0) -> None:
        self.epsilon = float(epsilon)
        self.clip_min = float(clip_min)
        self.clip_max = float(clip_max)

    def __call__(self, moved: np.ndarray, x_orig: np.ndarray) -> np.ndarray:
        return project(
            moved, x_orig, self.epsilon, self.clip_min, self.clip_max,
            out=moved,
        )


class BoxProjection:
    """Image-box clip only (FGSM's single step)."""

    def __init__(self, clip_min=0.0, clip_max=1.0) -> None:
        self.clip_min = float(clip_min)
        self.clip_max = float(clip_max)

    def __call__(self, moved: np.ndarray, x_orig: np.ndarray) -> np.ndarray:
        np.clip(moved, self.clip_min, self.clip_max, out=moved)
        return moved


# ----------------------------------------------------------------------
# The standard gradient step and the loop driver.
# ----------------------------------------------------------------------

class GradientStep:
    """The canonical iteration: estimate, step, project."""

    def __init__(self, estimator, rule, projection) -> None:
        self.estimator = estimator
        self.rule = rule
        self.projection = projection

    def __call__(self, x_adv, x_orig, y) -> np.ndarray:
        grad = self.estimator(x_adv, y)
        moved = x_adv + self.rule(grad)
        return self.projection(moved, x_orig)


class AttackLoop:
    """Drive a step function for ``num_steps`` iterations over a batch.

    Parameters
    ----------
    step_fn:
        A :class:`GradientStep`, or any callable
        ``(x_adv, x_orig, y) -> next iterate``.
    num_steps:
        Iteration budget.
    initializer:
        Callable ``x -> x_0``; ignored when ``run`` receives ``start=``.
    """

    def __init__(
        self,
        step_fn,
        *,
        num_steps: int,
        initializer: Callable = zero_init,
    ) -> None:
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        self.step_fn = step_fn
        self.num_steps = int(num_steps)
        self.initializer = initializer

    def step(self, x_adv, x_orig, y):
        """One iteration from ``x_adv`` (the epoch-wise defense's primitive)."""
        return self.step_fn(x_adv, x_orig, y)

    def run(
        self,
        x_orig: np.ndarray,
        y: np.ndarray,
        *,
        start: Optional[np.ndarray] = None,
        record_intermediates: bool = False,
    ):
        """Attack the batch; returns the final iterate.

        With ``record_intermediates=True`` returns the list of iterates
        after every step instead (``result[-1]`` is the final iterate).
        """
        x_adv = start if start is not None else self.initializer(x_orig)
        intermediates: List[np.ndarray] = []
        for _ in range(self.num_steps):
            x_adv = self.step_fn(x_adv, x_orig, y)
            if record_intermediates:
                intermediates.append(x_adv.copy())
        if tel.enabled():
            tel.counter("attack.loop.runs")
            tel.counter("attack.loop.iterations", self.num_steps)
        return intermediates if record_intermediates else x_adv
