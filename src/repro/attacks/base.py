"""Attack base class and shared gradient machinery.

All attacks operate on numpy image batches in the unit box ``[0, 1]`` and
return perturbed numpy batches.  White-box gradients are obtained through
the autograd engine by marking the input tensor as requiring grad —
exactly the mechanism the paper's equations describe::

    delta_i = sign( d L(C(x_{i-1}), y) / d x_{i-1} ) * eps_i
    x_i     = clip(x_{i-1} + delta_i)

Only that input gradient is taken: :func:`frozen_parameters` switches the
victim's parameters out of the graph while the attack runs its forward and
backward, so no weight or bias gradient is computed or accumulated.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from ..autograd import Tensor
from ..nn import Module, cross_entropy
from ..runtime import ensure_float_array
from ..utils.validation import check_image_batch

__all__ = [
    "Attack",
    "frozen_parameters",
    "project",
    "project_linf",
    "clip_to_box",
]


@contextmanager
def frozen_parameters(model) -> Iterator[None]:
    """Switch off ``requires_grad`` on ``model``'s parameters for the block.

    An attack needs dL/dx only.  Each op records which inputs need a
    gradient when it runs forward, so a graph built inside this block
    skips the weight and bias gradient GEMMs and reductions, and the
    backward leaves every ``param.grad`` untouched.  Only parameters that
    currently require grad are flipped, and they are restored even if the
    block raises.  Duck-typed victims without ``.parameters()`` are left
    alone.
    """
    parameters = getattr(model, "parameters", None)
    frozen = (
        [p for p in parameters() if p.requires_grad]
        if callable(parameters)
        else []
    )
    for param in frozen:
        param.requires_grad = False
    try:
        yield
    finally:
        for param in frozen:
            param.requires_grad = True


def clip_to_box(x: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Clamp pixel values into the valid image box."""
    return np.clip(x, low, high)


def project_linf(
    x_adv: np.ndarray, x_orig: np.ndarray, epsilon: float
) -> np.ndarray:
    """Project ``x_adv`` onto the l_inf ball of radius ``epsilon`` around
    ``x_orig`` (elementwise clamp of the perturbation)."""
    return x_orig + np.clip(x_adv - x_orig, -epsilon, epsilon)


def project(
    x_adv: np.ndarray,
    x_orig: np.ndarray,
    epsilon: float,
    clip_min: float = 0.0,
    clip_max: float = 1.0,
    out: np.ndarray = None,
) -> np.ndarray:
    """Fused l_inf-ball + image-box projection.

    Replaces the old two-call ``clip_to_box(project_linf(...))`` pattern
    with a single pass that reuses one buffer for every intermediate (pass
    ``out=x_adv`` to project fully in place).  The ball projection stays in
    delta form — ``x + clip(x' - x, -eps, eps)`` — because the one-clip
    array-bounds formulation ``clip(x', x - eps, x + eps)`` is not
    bit-identical in floating point, and iterate-for-iterate equivalence
    with the legacy attacks is a hard guarantee of the attack engine.
    """
    out = np.subtract(x_adv, x_orig, out=out)
    np.clip(out, -epsilon, epsilon, out=out)
    np.add(out, x_orig, out=out)
    np.clip(out, clip_min, clip_max, out=out)
    return out


class Attack:
    """Base class for white-box evasion attacks.

    Parameters
    ----------
    model:
        The victim classifier (any callable module producing logits).
    loss_fn:
        Loss whose input-gradient drives the attack; defaults to softmax
        cross-entropy as in the paper.
    clip_min, clip_max:
        Valid pixel range.
    targeted:
        If ``True``, labels passed to :meth:`generate` are *target* classes
        and the attack descends the loss instead of ascending it.
    """

    def __init__(
        self,
        model: Module,
        loss_fn: Callable = cross_entropy,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        targeted: bool = False,
    ) -> None:
        if clip_min >= clip_max:
            raise ValueError(
                f"clip_min must be below clip_max, got [{clip_min}, {clip_max}]"
            )
        self.model = model
        self.loss_fn = loss_fn
        self.clip_min = clip_min
        self.clip_max = clip_max
        self.targeted = targeted

    # ------------------------------------------------------------------
    def input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. the input batch.

        The model is evaluated in its current training mode; callers should
        normally put the model in eval mode first (attacks against dropout
        noise are not what the paper studies).
        """
        # No dtype cast: perturbation math runs in the input's own floating
        # dtype (the policy decides it upstream, when the batch is created).
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

    def loss_direction(self) -> float:
        """+1 for untargeted ascent, -1 for targeted descent."""
        return -1.0 if self.targeted else 1.0

    # ------------------------------------------------------------------
    def generate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return adversarial examples for batch ``(x, y)``."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.generate(x, y)

    # ------------------------------------------------------------------
    def _validate(self, x: np.ndarray, y: np.ndarray):
        """Canonicalize an ``(x, y)`` batch; returns the coerced pair.

        ``x`` becomes a floating array in the runtime policy dtype; ``y``
        becomes a 1-D integer array (lists and integral float arrays are
        coerced, so un-canonicalized labels can never reach the loss).
        """
        check_image_batch(x)
        x = ensure_float_array(x)
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {y.shape}")
        if len(y) != len(x):
            raise ValueError(
                f"labels ({len(y)}) and examples ({len(x)}) disagree"
            )
        if not np.issubdtype(y.dtype, np.integer):
            coerced = y.astype(np.int64)
            if np.any(coerced != y):
                raise ValueError(
                    f"labels must be integers, got dtype {y.dtype}"
                )
            y = coerced
        return x, y

    @property
    def name(self) -> str:
        """Short attack name used in reports."""
        return type(self).__name__
