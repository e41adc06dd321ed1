"""Projected Gradient Descent (Madry et al., 2017): BIM + random start."""

from __future__ import annotations

from typing import Optional

from ..utils.rng import RngLike, ensure_rng
from .bim import BIM
from .loop import UniformLinfInit

__all__ = ["PGD"]


class PGD(BIM):
    """BIM with a uniform random start inside the l_inf ball.

    The random start makes PGD a slightly stronger attack than BIM at
    identical step counts; it is included as the standard extension the
    paper's future-work section points toward ("more experiments to get
    deeper understanding of Single-Adv and Iter-Adv").

    On the attack engine this is BIM with the initializer swapped for
    :class:`~repro.attacks.loop.UniformLinfInit`.

    Parameters
    ----------
    rng:
        Seed or generator for the random start.
    """

    def __init__(
        self,
        model,
        epsilon: float,
        num_steps: int = 10,
        step_size: Optional[float] = None,
        rng: RngLike = None,
        **kwargs,
    ) -> None:
        super().__init__(
            model, epsilon, num_steps=num_steps, step_size=step_size, **kwargs
        )
        self._rng = ensure_rng(rng)

    def _make_initializer(self):
        return UniformLinfInit(
            self.epsilon, self._rng, self.clip_min, self.clip_max
        )
