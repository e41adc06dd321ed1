"""Neural-network library built on :mod:`repro.autograd`.

Provides the module system, layers, losses and initializers used to build
the classifiers that the paper trains and attacks.
"""

from . import init
from .layers import (
    AvgPool2d,
    Conv2d,
    Dense,
    Flatten,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import CrossEntropyLoss, cross_entropy, one_hot
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
    "Flatten",
    "Reshape",
    "Sequential",
    # losses
    "cross_entropy",
    "one_hot",
    "CrossEntropyLoss",
]
