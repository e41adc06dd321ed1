"""Neural-network library built on :mod:`repro.autograd`.

Provides the module system, layers, losses and initializers used to build
the classifiers that the paper trains and attacks.
"""

from . import init
from .layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    LayerNorm,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)
from .losses import (
    CrossEntropyLoss,
    MSELoss,
    NLLLoss,
    cross_entropy,
    mse_loss,
    nll_loss,
    one_hot,
)
from .module import Module, Parameter

__all__ = [
    "Module",
    "Parameter",
    "init",
    # layers
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "Dropout",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "Flatten",
    "Reshape",
    "Sequential",
    # losses
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "one_hot",
    "CrossEntropyLoss",
    "NLLLoss",
    "MSELoss",
]
