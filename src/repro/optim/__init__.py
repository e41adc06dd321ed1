"""Optimizers."""

from .adam import Adam
from .optimizer import Optimizer
from .sgd import SGD

__all__ = ["Optimizer", "SGD", "Adam"]
