"""Adam optimizer."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias-corrected moment estimates."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for index, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            m = self._state_buffer(self._m, index, param)
            v = self._state_buffer(self._v, index, param)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            self._assign(
                param,
                param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps),
            )
