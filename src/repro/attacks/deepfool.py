"""DeepFool (Moosavi-Dezfooli et al., 2016) — minimal-perturbation attack.

Unlike the budgeted attacks (FGSM/BIM/PGD), DeepFool searches for the
*smallest* perturbation that crosses a decision boundary, by iteratively
linearising the classifier around the current iterate and stepping to the
nearest linearised boundary.  Useful for measuring a model's empirical
margin; included as an extension attack.

The implementation evaluates per-class input gradients, so its cost per
iteration is ``num_classes`` backward passes — use small batches.

DeepFool is the attack the engine's batched early stopping was *made*
for: it runs on the :class:`~repro.attacks.loop.AttackLoop` with
``early_stop`` always on, so fooled examples drop out of the expensive
per-class gradient passes the moment the forward pass shows they crossed
the boundary.
"""

from __future__ import annotations

import numpy as np

from .base import Attack
from .loop import (
    AttackLoop,
    BoxProjection,
    ClassGradients,
    LoopState,
    Misclassified,
    zero_init,
)

__all__ = ["DeepFool"]

# Added to the distance to the nearest linearised boundary (input-space l2),
# as in the reference DeepFool code: an example sitting exactly on a
# boundary (logit margin 0, argmax still on the true class) has distance 0,
# and without this constant its step -- and the overshoot that scales it --
# would be zero forever.
_BOUNDARY_EPS = 1e-4


class DeepFoolStep:
    """Linearisation step: move to the nearest linearised class boundary.

    Implements the engine's step protocol (``gradient``/``apply``): the
    "gradient" phase computes the full per-example perturbation from the
    per-class input gradients (zero for rows the model already
    misclassifies — the loop retires those before the update lands), and
    the apply phase adds it under a box-only projection.
    """

    def __init__(
        self, model, overshoot, overshoot_growth, clip_min, clip_max
    ) -> None:
        self.class_grads = ClassGradients(model)
        self.overshoot = float(overshoot)
        self.overshoot_growth = float(overshoot_growth)
        self.projection = BoxProjection(clip_min, clip_max)

    def gradient(self, x_adv, y, state: LoopState) -> np.ndarray:
        logits, grads = self.class_grads(x_adv, state)
        overshoot = self.overshoot * self.overshoot_growth ** state.step
        still_correct = logits.argmax(axis=1) == y
        perturbations = np.zeros_like(x_adv)
        for i in range(len(y)):
            if not still_correct[i]:
                continue
            true = y[i]
            best_ratio = np.inf
            best_delta = None
            for cls in range(logits.shape[1]):
                if cls == true:
                    continue
                w = grads[i, cls] - grads[i, true]
                f = logits[i, cls] - logits[i, true]
                w_norm = max(np.linalg.norm(w), 1e-12)
                ratio = abs(f) / w_norm
                if ratio < best_ratio:
                    best_ratio = ratio
                    best_delta = ((ratio + _BOUNDARY_EPS) / w_norm) * w
            if best_delta is not None:
                perturbations[i] = (1.0 + overshoot) * best_delta
        return perturbations

    def apply(self, x_adv, x_orig, y, perturbations, state) -> np.ndarray:
        moved = x_adv + perturbations
        return self.projection(moved, x_orig)

    def __call__(self, x_adv, x_orig, y, state) -> np.ndarray:
        return self.apply(
            x_adv, x_orig, y, self.gradient(x_adv, y, state), state
        )


class DeepFool(Attack):
    """l2 DeepFool with an optional overshoot and final budget clamp.

    Parameters
    ----------
    max_steps:
        Maximum linearisation iterations per example.
    overshoot:
        Multiplicative boundary overshoot (default 0.02 as in the paper).
    overshoot_growth:
        Escalation factor applied each iteration an example stays correct.
        Images in this repo are near-binary, so the box clip truncates many
        linearised steps; growing the overshoot lets stuck examples cross
        the boundary while early-exiting examples keep minimal
        perturbations.
    """

    def __init__(
        self,
        model,
        max_steps: int = 20,
        overshoot: float = 0.02,
        overshoot_growth: float = 1.3,
        **kwargs,
    ) -> None:
        kwargs.pop("targeted", None)  # DeepFool is inherently untargeted
        super().__init__(model, **kwargs)
        if max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        if overshoot < 0:
            raise ValueError(
                f"overshoot must be non-negative, got {overshoot}"
            )
        if overshoot_growth < 1.0:
            raise ValueError(
                f"overshoot_growth must be >= 1, got {overshoot_growth}"
            )
        self.max_steps = int(max_steps)
        self.overshoot = float(overshoot)
        self.overshoot_growth = float(overshoot_growth)
        self._loop = AttackLoop(
            model,
            DeepFoolStep(
                model,
                self.overshoot,
                self.overshoot_growth,
                self.clip_min,
                self.clip_max,
            ),
            num_steps=self.max_steps,
            initializer=zero_init,
            stop=Misclassified(targeted=False),
            early_stop=True,
        )

    def generate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return minimally perturbed misclassified examples."""
        x, y = self._validate(x, y)
        return self._loop.run(x, y)

    def perturbation_norms(
        self, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Per-example l2 size of the found minimal perturbations."""
        x_adv = self.generate(x, y)
        delta = (x_adv - np.asarray(x)).reshape(len(x), -1)
        return np.linalg.norm(delta, axis=1)
