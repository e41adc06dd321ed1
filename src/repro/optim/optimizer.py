"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Base class: holds the parameter list and the update contract.

    Subclasses implement :meth:`step`, reading ``param.grad`` and updating
    ``param.data`` in place.
    """

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError

    def _grads(self):
        """Yield ``(param, grad)`` for parameters that received gradients."""
        for param in self.params:
            if param.grad is not None:
                yield param, param.grad

    @staticmethod
    def _state_buffer(store, index, param):
        """Return ``store[index]``, re-synced to the parameter's dtype.

        Keeps moment buffers in agreement with the parameter after
        a ``Module.to_dtype`` cast performed post-construction.
        """
        buf = store[index]
        if buf.dtype != param.data.dtype:
            buf = store[index] = buf.astype(param.data.dtype)
        return buf

    @staticmethod
    def _assign(param, new_data) -> None:
        """Write an update back without changing the parameter's dtype.

        Leaf gradients accumulate in the policy's compute dtype, but a
        mixed-dtype graph (e.g. a float64 input fed to float32 weights)
        can still produce a wider gradient or update; the cast here stops
        that width from leaking into the weights.
        """
        param.data = np.asarray(new_data).astype(param.data.dtype, copy=False)
