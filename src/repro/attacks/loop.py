"""Composable attack-iteration engine.

Every iterative evasion attack in this library is the same loop wearing a
different hat::

    x_0 = initializer(x)
    for i in 0..N-1:
        g   = gradient(x_i, y)          # backprop or SPSA
        d   = step_rule(g)              # sign or momentum
        x'  = x_i + direction * d
        x_{i+1} = projection(x', x)     # fused norm-ball + box clip
        [stop examples the attack already fooled]

:class:`AttackLoop` factors that loop out once, so the concrete attacks in
this package are thin declarative compositions of four pluggable pieces:

* **initializers** — where the iterate starts (:func:`zero_init`,
  :class:`UniformLinfInit`, or a carried iterate passed via ``start=``
  for the epoch-wise defense);
* **gradient estimators** — :class:`BackpropGradient` (white-box) and
  :class:`SpsaGradient` (finite differences, no backprop), both behind
  the same :class:`GradientEstimator` interface;
* **step rules** — :class:`SignStep`, :class:`MomentumSignStep`;
* **projections** — :class:`LinfBoxProjection` (the l_inf-ball
  projection and the image-box clip fused into one in-place pass over
  the moved iterate) and :class:`BoxProjection` (the box clip alone).

The backprop estimators take input gradients only: they run their forward
and backward inside :func:`~repro.attacks.base.frozen_parameters`, so an
attack step never computes a weight or bias gradient and never writes to
``param.grad``.  A trainer that crafts its adversarial half this way gets
an update that is the gradient of its training loss alone.

The loop also owns two batching features the hand-rolled attacks never had:

* **batched early stopping** (``early_stop=True``): per-example stop
  conditions mask already-fooled examples out of *subsequent*
  forward/backward passes.  Survivors are compacted into scratch buffers
  drawn from :mod:`repro.runtime.workspace`, so the model only ever sees
  the shrinking active set — on an undefended model a BIM(10) sweep
  typically collapses to a handful of active examples after two or three
  iterations (see ``benchmarks/bench_attacks.py``).
* **multi-restart** (``restarts=N``): reruns the loop from fresh random
  initialisations, but only for the examples the previous restarts failed
  to fool.

With ``early_stop=False`` and ``restarts=1`` (the defaults) the loop is
numerically *identical* — bit-for-bit, not merely close — to the
pre-engine hand-rolled attack loops; the equivalence suite in
``tests/attacks/test_equivalence.py`` pins exactly that.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from .. import telemetry as tel
from ..autograd import Tensor, no_grad
from ..nn import cross_entropy
from ..runtime import ensure_float_array
from ..runtime.workspace import get_workspace
from .base import frozen_parameters, project

__all__ = [
    "LoopState",
    "zero_init",
    "UniformLinfInit",
    "GradientEstimator",
    "BackpropGradient",
    "SpsaGradient",
    "SignStep",
    "MomentumSignStep",
    "LinfBoxProjection",
    "BoxProjection",
    "Misclassified",
    "GradientStep",
    "AttackLoop",
]


class LoopState:
    """Mutable per-run state threaded through every loop component.

    Attributes
    ----------
    indices:
        Dataset-row indices of the currently active examples, or ``None``
        when the whole batch is active (the no-masking fast path).  Step
        rules with per-example state (momentum) use it to address their
        full-batch buffers.
    logits:
        Forward logits of the *current* iterate for the active rows, set
        by gradient estimators that compute them anyway; the stop
        condition reads them so early stopping costs no extra forward.
    batch_shape / dtype:
        Shape/dtype of the full batch, for lazily allocated rule state.
    extra:
        Scratch dict for step-rule state (e.g. the momentum buffer).
    """

    __slots__ = ("indices", "logits", "batch_shape", "dtype", "extra")

    def __init__(self, batch_shape=None, dtype=None) -> None:
        self.indices: Optional[np.ndarray] = None
        self.logits: Optional[np.ndarray] = None
        self.batch_shape = batch_shape
        self.dtype = dtype
        self.extra: dict = {}


# ----------------------------------------------------------------------
# Initializers: (x_orig) -> starting iterate (always a fresh array).
# ----------------------------------------------------------------------

def zero_init(x: np.ndarray) -> np.ndarray:
    """Start from the clean example (BIM, FGSM, SPSA, MIM)."""
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
# Gradient estimators.
# ----------------------------------------------------------------------

class GradientEstimator:
    """Interface: estimate the input-gradient of the attack objective.

    ``__call__(x, y, state)`` returns an array shaped like ``x``.
    Estimators that obtain the forward logits as a by-product publish them
    on ``state.logits`` so the early-stop condition can reuse them.
    """

    def __call__(
        self, x: np.ndarray, y: np.ndarray, state: LoopState
    ) -> np.ndarray:
        raise NotImplementedError


class BackpropGradient(GradientEstimator):
    """White-box gradient through the autograd engine (one fwd + bwd)."""

    def __init__(self, model, loss_fn: Callable = cross_entropy) -> None:
        self.model = model
        self.loss_fn = loss_fn

    def __call__(self, x, y, state: LoopState) -> np.ndarray:
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
        state.logits = logits.data
        return grad


class SpsaGradient(GradientEstimator):
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

    def __call__(self, x, y, state: LoopState) -> np.ndarray:
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
# Step rules: gradient -> un-directed update vector.
# ----------------------------------------------------------------------

class SignStep:
    """l_inf steepest descent: ``step_size * sign(grad)``."""

    def __init__(self, step_size: float) -> None:
        self.step_size = float(step_size)

    def __call__(self, grad: np.ndarray, state: LoopState) -> np.ndarray:
        return self.step_size * np.sign(grad)


class MomentumSignStep:
    """MIM update: decayed running average of l1-normalised gradients.

    The momentum buffer spans the full batch and is addressed through
    ``state.indices`` so early-stop compaction keeps each example's
    momentum aligned with its iterate.
    """

    def __init__(self, step_size: float, decay: float = 1.0) -> None:
        self.step_size = float(step_size)
        self.decay = float(decay)

    def __call__(self, grad: np.ndarray, state: LoopState) -> np.ndarray:
        momentum = state.extra.get("momentum")
        if momentum is None:
            momentum = np.zeros(state.batch_shape, dtype=state.dtype)
            state.extra["momentum"] = momentum
        # l1-normalise per example (mean absolute value).
        flat = np.abs(grad).reshape(len(grad), -1).mean(axis=1)
        flat = np.maximum(flat, 1e-12).reshape(
            (-1,) + (1,) * (grad.ndim - 1)
        )
        if state.indices is None:
            momentum *= self.decay
            momentum += grad / flat
            current = momentum
        else:
            current = self.decay * momentum[state.indices] + grad / flat
            momentum[state.indices] = current
        return self.step_size * np.sign(current)


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
    """Image-box clip only (FGSM's single step, noise)."""

    def __init__(self, clip_min=0.0, clip_max=1.0) -> None:
        self.clip_min = float(clip_min)
        self.clip_max = float(clip_max)

    def __call__(self, moved: np.ndarray, x_orig: np.ndarray) -> np.ndarray:
        np.clip(moved, self.clip_min, self.clip_max, out=moved)
        return moved


# ----------------------------------------------------------------------
# Stop conditions.
# ----------------------------------------------------------------------

class Misclassified:
    """Per-example success test: the model no longer predicts the label.

    For targeted attacks success is predicting the *target* label instead.
    Reads ``state.logits`` when the gradient estimator published them
    (free); falls back to one extra forward pass otherwise (SPSA).
    """

    def __init__(self, targeted: bool = False) -> None:
        self.targeted = targeted

    def __call__(self, model, x, y, state: LoopState) -> np.ndarray:
        if state.logits is not None:
            predictions = state.logits.argmax(axis=1)
        else:
            predictions = model.predict(x)
        if self.targeted:
            return predictions == y
        return predictions != y


# ----------------------------------------------------------------------
# The standard gradient step and the loop driver.
# ----------------------------------------------------------------------

class GradientStep:
    """The canonical iteration: estimate, step, project.

    Split into :meth:`gradient` and :meth:`apply` so the early-stop driver
    can interleave the stop check between the forward pass (which yields
    the logits the check needs) and the update.
    """

    def __init__(self, estimator, rule, projection, direction=1.0) -> None:
        self.estimator = estimator
        self.rule = rule
        self.projection = projection
        self.direction = float(direction)

    def gradient(self, x_adv, y, state: LoopState):
        return self.estimator(x_adv, y, state)

    def apply(self, x_adv, x_orig, y, grad, state: LoopState) -> np.ndarray:
        update = self.rule(grad, state)
        moved = x_adv + self.direction * update
        return self.projection(moved, x_orig)

    def __call__(self, x_adv, x_orig, y, state: LoopState) -> np.ndarray:
        grad = self.gradient(x_adv, y, state)
        return self.apply(x_adv, x_orig, y, grad, state)


class AttackLoop:
    """Drive a step function for ``num_steps`` iterations over a batch.

    Parameters
    ----------
    model:
        Victim classifier (used by stop conditions and restarts).
    step_fn:
        A :class:`GradientStep` (or anything implementing its
        ``gradient``/``apply``/``__call__`` protocol).
    num_steps:
        Iteration budget.
    initializer:
        Callable ``x -> x_0``; ignored when ``run`` receives ``start=``
        (the epoch-wise defense's carried iterate).
    stop:
        Optional per-example stop condition (:class:`Misclassified`).
    early_stop:
        Mask examples that satisfy ``stop`` out of subsequent
        forward/backward passes, compacting survivors through the
        workspace pool.  Off by default: the unmasked path is bit-exact
        with the legacy attack loops.
    restarts:
        Number of runs from fresh initialisations; restarts after the
        first only re-attack examples that are still correctly classified
        (requires ``stop``).
    """

    def __init__(
        self,
        model,
        step_fn,
        *,
        num_steps: int,
        initializer: Callable = zero_init,
        stop=None,
        early_stop: bool = False,
        restarts: int = 1,
    ) -> None:
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        if restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {restarts}")
        if restarts > 1 and stop is None:
            raise ValueError("multi-restart needs a stop condition")
        if early_stop and stop is None:
            raise ValueError("early_stop needs a stop condition")
        self.model = model
        self.step_fn = step_fn
        self.num_steps = int(num_steps)
        self.initializer = initializer
        self.stop = stop
        self.early_stop = bool(early_stop)
        self.restarts = int(restarts)

    # ------------------------------------------------------------------
    def step(self, x_adv, x_orig, y, state: Optional[LoopState] = None):
        """One stateless iteration (the epoch-wise defense's primitive)."""
        if state is None:
            state = LoopState(batch_shape=x_orig.shape, dtype=x_orig.dtype)
        return self.step_fn(x_adv, x_orig, y, state)

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
        intermediates: Optional[List[np.ndarray]] = (
            [] if record_intermediates else None
        )
        x_adv = self._run_once(x_orig, y, start, intermediates)
        if self.restarts > 1 and not record_intermediates:
            x_adv = self._merge_restarts(x_orig, y, x_adv)
        return intermediates if record_intermediates else x_adv

    # ------------------------------------------------------------------
    def _merge_restarts(self, x_orig, y, x_adv):
        state = LoopState(batch_shape=x_orig.shape, dtype=x_orig.dtype)
        for _restart in range(1, self.restarts):
            state.logits = None
            fooled = self.stop(self.model, x_adv, y, state)
            if fooled.all():
                break
            remaining = np.flatnonzero(~fooled)
            if tel.enabled():
                tel.counter("attack.loop.restarts")
                tel.counter("attack.restart.rows", int(remaining.size))
            redo = self._run_once(
                np.ascontiguousarray(x_orig[remaining]), y[remaining],
                None, None,
            )
            x_adv[remaining] = redo
        return x_adv

    def _run_once(self, x_orig, y, start, intermediates):
        x_adv = start if start is not None else self.initializer(x_orig)
        state = LoopState(batch_shape=x_orig.shape, dtype=x_orig.dtype)
        if self.early_stop and self.stop is not None:
            return self._run_masked(x_orig, y, x_adv, state, intermediates)
        for _ in range(self.num_steps):
            state.logits = None
            x_adv = self.step_fn(x_adv, x_orig, y, state)
            if intermediates is not None:
                intermediates.append(x_adv.copy())
        if tel.enabled():
            tel.counter("attack.loop.runs")
            tel.counter("attack.loop.iterations", self.num_steps)
        return x_adv

    def _run_masked(self, x_orig, y, x_adv, state, intermediates):
        """Early-stop driver: shrink the batch as examples get fooled.

        Per iteration: compact the active rows into pooled scratch
        buffers, run the (single) forward/backward over that compact
        batch, retire rows the forward shows are already fooled — they
        never see another pass — and step-and-scatter the survivors.
        """
        workspace = get_workspace()
        n = len(x_orig)
        active = np.arange(n)
        iterations = 0
        retired_total = 0
        for _ in range(self.num_steps):
            if active.size == 0:
                break
            iterations += 1
            state.logits = None
            full = active.size == n
            if full:
                x_active, orig_active, y_active = x_adv, x_orig, y
                scratch = ()
            else:
                x_active = workspace.acquire(
                    (active.size,) + x_adv.shape[1:], x_adv.dtype
                )
                np.take(x_adv, active, axis=0, out=x_active)
                orig_active = workspace.acquire(
                    (active.size,) + x_orig.shape[1:], x_orig.dtype
                )
                np.take(x_orig, active, axis=0, out=orig_active)
                y_active = y[active]
                scratch = (x_active, orig_active)
            state.indices = active
            grad = self.step_fn.gradient(x_active, y_active, state)
            done = self.stop(self.model, x_active, y_active, state)
            stepped = self.step_fn.apply(
                x_active, orig_active, y_active, grad, state
            )
            if done.any():
                keep = ~done
                x_adv[active[keep]] = stepped[keep]
                before = active.size
                active = active[keep]
                if tel.enabled():
                    retired = int(before - active.size)
                    retired_total += retired
                    tel.observe("attack.early_stop.retired_per_step", retired)
            else:
                x_adv[active] = stepped
            for buffer in scratch:
                workspace.release(buffer)
            if intermediates is not None:
                intermediates.append(x_adv.copy())
        state.indices = None
        if tel.enabled():
            tel.counter("attack.loop.runs")
            tel.counter("attack.loop.iterations", iterations)
            tel.counter("attack.early_stop.retired", retired_total)
            tel.counter("attack.early_stop.survivors", int(active.size))
        return x_adv
