"""Batch normalization layers.

Running statistics are kept as registered buffers (persisted in state
dicts); normalization statistics come from the batch in training mode and
from the running estimates in eval mode.
"""

from __future__ import annotations

import numpy as np

from ...autograd import Tensor
from ...runtime import compute_dtype
from ..module import Module, Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d"]


class _BatchNorm(Module):
    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        affine: bool = True,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(
                f"num_features must be positive, got {num_features}"
            )
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must lie in (0, 1], got {momentum}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.affine = affine
        if affine:
            self.gamma = Parameter(np.ones(num_features))
            self.beta = Parameter(np.zeros(num_features))
        else:
            self.gamma = None
            self.beta = None
        self.register_buffer(
            "running_mean", np.zeros(num_features, dtype=compute_dtype())
        )
        self.register_buffer(
            "running_var", np.ones(num_features, dtype=compute_dtype())
        )

    def _reduction_axes(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def _param_shape(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        """Apply the layer to ``x``."""
        axes = self._reduction_axes(x)
        shape = self._param_shape(x)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            # Update running stats outside the graph.
            m = self.momentum
            self._update_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mean.data.reshape(-1),
            )
            self._update_buffer(
                "running_var",
                (1 - m) * self.running_var + m * var.data.reshape(-1),
            )
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normalized = (x - mean) / (var + self.eps).sqrt()
        if self.affine:
            gamma = self.gamma.reshape(shape)
            beta = self.beta.reshape(shape)
            normalized = normalized * gamma + beta
        return normalized

    def extra_repr(self) -> str:
        """Hyper-parameter summary for repr()."""
        return (
            f"num_features={self.num_features}, momentum={self.momentum}, "
            f"eps={self.eps}, affine={self.affine}"
        )


class BatchNorm1d(_BatchNorm):
    """Batch norm over ``(N, C)`` feature matrices."""

    def _reduction_axes(self, x: Tensor) -> tuple:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expected (N, {self.num_features}), "
                f"got shape {x.shape}"
            )
        return (0,)

    def _param_shape(self, x: Tensor) -> tuple:
        return (1, self.num_features)


class BatchNorm2d(_BatchNorm):
    """Batch norm over ``(N, C, H, W)`` image batches (per-channel)."""

    def _reduction_axes(self, x: Tensor) -> tuple:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), "
                f"got shape {x.shape}"
            )
        return (0, 2, 3)

    def _param_shape(self, x: Tensor) -> tuple:
        return (1, self.num_features, 1, 1)
