"""Reverse-mode automatic differentiation over numpy arrays.

The engine is the substrate everything else in :mod:`repro` builds on: the
NN library (:mod:`repro.nn`) uses it for parameter gradients, and the attacks
(:mod:`repro.attacks`) use it for input gradients — the key requirement of
FGSM/BIM-style adversarial example generation.

Public surface::

    from repro.autograd import Tensor, no_grad
    from repro import autograd as ag

    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = (x @ Tensor([[1.0], [3.0]])).relu().sum()
    y.backward()
    x.grad  # -> array([[1., 3.]])
"""

from .engine import (
    Function,
    Tensor,
    as_tensor,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)
from .grad_check import check_gradients, numerical_gradient
from .ops_basic import abs_, add, mul, neg, sub
from .ops_loss import softmax_cross_entropy
from .ops_nn import (
    avg_pool2d,
    conv2d,
    leaky_relu,
    log_softmax,
    matmul,
    max_pool2d,
    relu,
    sigmoid,
    tanh,
)
from .ops_reduce import logsumexp, mean, sum_
from .ops_shape import flatten, getitem, reshape, transpose

__all__ = [
    "Tensor",
    "Function",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "check_gradients",
    "numerical_gradient",
    # basic
    "add",
    "sub",
    "mul",
    "neg",
    "abs_",
    # nn
    "matmul",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "log_softmax",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    # loss
    "softmax_cross_entropy",
    # reduce
    "sum_",
    "mean",
    "logsumexp",
    # shape
    "reshape",
    "transpose",
    "getitem",
    "flatten",
]
