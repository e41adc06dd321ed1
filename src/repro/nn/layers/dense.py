"""Fully connected (dense/linear) layer."""

from __future__ import annotations

import numpy as np

from ...autograd import Tensor
from ...utils.rng import RngLike, ensure_rng
from .. import init
from ..module import Module, Parameter

__all__ = ["Dense"]


class Dense(Module):
    """Affine map ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Seed or generator for He-uniform weight initialization (suits the
        ReLU nets used in the paper).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                "in_features and out_features must be positive, got "
                f"{in_features} and {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        generator = ensure_rng(rng)
        self.weight = Parameter(
            init.kaiming_uniform((in_features, out_features), rng=generator)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the layer to ``x``."""
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dim {self.in_features}, "
                f"got input shape {x.shape}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        """Hyper-parameter summary for repr()."""
        return (
            f"in_features={self.in_features}, "
            f"out_features={self.out_features}, "
            f"bias={self.bias is not None}"
        )
