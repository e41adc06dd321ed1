"""Plain stochastic gradient descent."""

from __future__ import annotations

from .optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """SGD update ``p <- p - lr * g``."""

    def step(self) -> None:
        """Apply one SGD update from the accumulated gradients."""
        for param, grad in self._grads():
            self._assign(param, param.data - self.lr * grad)
