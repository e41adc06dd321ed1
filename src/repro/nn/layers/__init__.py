"""Neural-network layers."""

from .activations import LeakyReLU, ReLU, Sigmoid, Tanh
from .container import Sequential
from .conv import Conv2d
from .dense import Dense
from .pooling import AvgPool2d, MaxPool2d
from .shape import Flatten, Reshape

__all__ = [
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
]
