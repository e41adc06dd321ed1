"""Activation layers (stateless wrappers over the functional ops)."""

from __future__ import annotations

from ...autograd import Tensor, leaky_relu, relu, sigmoid, tanh
from ..module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


class ReLU(Module):
    """Rectified linear unit ``max(x, 0)``."""

    def forward(self, x: Tensor) -> Tensor:
        """Apply the layer to ``x``."""
        return relu(x)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        """Apply the activation to ``x``."""
        return leaky_relu(x, negative_slope=self.negative_slope)

    def extra_repr(self) -> str:
        """Hyper-parameter summary for repr()."""
        return f"negative_slope={self.negative_slope}"


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        """Apply the activation to ``x``."""
        return sigmoid(x)


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        """Apply the activation to ``x``."""
        return tanh(x)

