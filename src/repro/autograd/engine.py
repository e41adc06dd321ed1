"""Core reverse-mode automatic differentiation engine.

This module defines the two central abstractions of the autograd system:

``Tensor``
    A wrapper around a ``numpy.ndarray`` that records the operations applied
    to it so that gradients can later be propagated backwards through the
    resulting computation graph.

``Function``
    The base class for differentiable operations.  Each operation implements
    a static ``forward`` (computing the output value) and ``backward``
    (computing input gradients given the output gradient).

The design mirrors the tape-based approach used by mainstream deep-learning
frameworks: the graph is built dynamically while the forward computation
runs, and :meth:`Tensor.backward` performs a topological traversal of that
graph accumulating gradients.

Only ``Tensor`` and bookkeeping live here; the concrete differentiable
operations are defined in the ``ops_*`` modules of this package, which attach
operator overloads and methods onto ``Tensor`` at import time.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Optional, Sequence, Union

import numpy as np

from ..runtime import accum_dtype, compute_dtype, get_workspace

__all__ = [
    "Tensor",
    "Function",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "as_tensor",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    """Thread-local flag controlling whether operations are recorded."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return ``True`` when operations are currently being recorded."""
    return _grad_mode.enabled


def set_grad_enabled(enabled: bool) -> None:
    """Globally enable or disable gradient recording for this thread."""
    _grad_mode.enabled = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used for evaluation loops and for the non-differentiable bookkeeping
    inside attacks (e.g. applying the sign of a gradient), where building a
    graph would only waste memory.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Function:
    """Base class for differentiable operations.

    Subclasses implement::

        @staticmethod
        def forward(ctx, *array_args, **kwargs) -> np.ndarray

        @staticmethod
        def backward(ctx, grad_output) -> tuple[np.ndarray | None, ...]

    ``forward`` receives raw numpy arrays (positional tensor inputs are
    unwrapped) and may stash values needed for the backward pass via
    ``ctx.save_for_backward``/attributes on ``ctx``.  ``backward`` must
    return one gradient (or ``None``) per positional input of ``forward``.
    """

    def __init__(self) -> None:
        self.saved: tuple = ()
        self.inputs: tuple = ()
        self.needs_input_grad: tuple = ()

    def save_for_backward(self, *values) -> None:
        """Stash arbitrary values for use in :meth:`backward`."""
        self.saved = values

    def needs(self, position: int) -> bool:
        """Whether the input at ``position`` needs its gradient computed.

        Backwards use this to skip dead gradients (frozen parameters,
        constant operands).  Defaults to ``True`` when the mask is unset
        — e.g. a backward invoked directly in a test — so skipping is
        only ever an optimisation, never a behaviour change.
        """
        mask = self.needs_input_grad
        return mask[position] if position < len(mask) else True

    @staticmethod
    def forward(ctx: "Function", *args, **kwargs) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: "Function", grad_output: np.ndarray):
        raise NotImplementedError

    @classmethod
    def apply(cls, *args, **kwargs) -> "Tensor":
        """Run ``forward`` and, when recording, hook the result into the graph.

        Positional arguments that are :class:`Tensor` instances participate in
        differentiation; everything else (ints, tuples, ...) is passed
        through untouched and receives no gradient.
        """
        ctx = cls()
        tensor_inputs = [a for a in args if isinstance(a, Tensor)]
        raw_args = [a.data if isinstance(a, Tensor) else a for a in args]
        out_data = cls.forward(ctx, *raw_args, **kwargs)
        requires = is_grad_enabled() and any(
            t.requires_grad for t in tensor_inputs
        )
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            ctx.inputs = tuple(args)
            ctx.needs_input_grad = tuple(
                isinstance(a, Tensor) and a.requires_grad for a in args
            )
            out._ctx = ctx
        return out


class Tensor:
    """A numpy-backed array that supports reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray``.  Floating point data is
        kept at its own precision; integer input used in differentiable
        contexts is promoted by ``as_tensor`` to the compute dtype of the
        active :mod:`repro.runtime` precision policy.
    requires_grad:
        When ``True``, operations involving this tensor are recorded and
        :meth:`backward` will populate :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if requires_grad and not np.issubdtype(arr.dtype, np.floating):
            raise TypeError(
                "only floating point tensors can require gradients, "
                f"got dtype {arr.dtype}"
            )
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._ctx: Optional[Function] = None

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Numpy dtype of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transposed view (reversed axes)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python scalar."""
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Return a graph-detached cast of this tensor."""
        return Tensor(self.data.astype(dtype), requires_grad=False)

    # ------------------------------------------------------------------
    # gradient machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate through the graph rooted at this tensor.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ``1`` which is only valid for scalar tensors (the
            common "loss.backward()" case).
        """
        if not self.requires_grad:
            raise RuntimeError(
                "backward() called on a tensor that does not require grad"
            )
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "grad must be provided for non-scalar tensors"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad.data if isinstance(grad, Tensor) else grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        # Ids of accumulation buffers this traversal allocated itself.  Only
        # those may be mutated in place or recycled through the workspace:
        # arrays returned by a Function.backward may alias its saved state
        # or be shared between several of its inputs.
        owned: set[int] = set()
        workspace = get_workspace()
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            node_owned = id(node_grad) in owned
            owned.discard(id(node_grad))
            if node.requires_grad and node._ctx is None:
                # Leaf: accumulate into .grad in the policy's accum dtype.
                if node.grad is None:
                    acc = accum_dtype()
                    if node_owned and node_grad.dtype == acc:
                        # Donate the engine-owned buffer instead of copying.
                        node.grad = node_grad
                    else:
                        node.grad = node_grad.astype(acc, copy=True)
                        if node_owned:
                            workspace.release(node_grad)
                else:
                    existing = node.grad
                    if (
                        np.result_type(existing.dtype, node_grad.dtype)
                        == existing.dtype
                    ):
                        np.add(existing, node_grad, out=existing)
                    else:
                        node.grad = existing + node_grad
                    if node_owned:
                        workspace.release(node_grad)
                continue
            ctx = node._ctx
            if ctx is None:
                continue
            input_grads = ctx.backward(ctx, node_grad)
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            if len(input_grads) != len(ctx.inputs):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned "
                    f"{len(input_grads)} gradients for {len(ctx.inputs)} "
                    "inputs"
                )
            stored: list[np.ndarray] = []
            for inp, g in zip(ctx.inputs, input_grads):
                if g is None or not isinstance(inp, Tensor):
                    continue
                if not inp.requires_grad:
                    continue
                g = np.asarray(g)
                if g.shape != inp.data.shape:
                    raise RuntimeError(
                        f"{type(ctx).__name__}.backward produced gradient "
                        f"of shape {g.shape} for input of shape "
                        f"{inp.data.shape}"
                    )
                key = id(inp)
                current = grads.get(key)
                if current is None:
                    grads[key] = g
                    stored.append(g)
                elif (
                    id(current) in owned
                    and np.result_type(current.dtype, g.dtype)
                    == current.dtype
                ):
                    np.add(current, g, out=current)
                elif current.dtype == g.dtype:
                    total = workspace.acquire(current.shape, current.dtype)
                    np.add(current, g, out=total)
                    grads[key] = total
                    owned.add(id(total))
                    stored.append(total)
                else:
                    total = current + g
                    grads[key] = total
                    owned.add(id(total))
                    stored.append(total)
            if node_owned and not any(
                s is node_grad or getattr(s, "base", None) is node_grad
                for s in stored
            ):
                # The consumed gradient buffer was engine-allocated and did
                # not leak into any downstream gradient: recycle it.
                workspace.release(node_grad)

    # Operator overloads and math methods (add, matmul, sum, ...) are
    # attached by the ops modules; see ``repro.autograd.ops_basic`` etc.


def _topological_order(root: Tensor) -> list:
    """Return graph nodes reachable from ``root`` in reverse-topological order.

    Iterative (stack-based) depth-first search so that very deep graphs —
    e.g. many BIM iterations recorded in one graph — do not hit Python's
    recursion limit.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            for inp in node._ctx.inputs:
                if isinstance(inp, Tensor) and id(inp) not in visited:
                    stack.append((inp, False))
    order.reverse()
    return order


def as_tensor(value: ArrayLike, dtype=None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor`.

    Existing tensors are returned as-is (unless a dtype cast is requested).
    Plain Python numbers and integer/bool arrays are promoted to the active
    policy's compute dtype so they can take part in differentiable
    arithmetic; floating arrays keep their own precision.  Converting
    scalars to the compute dtype (rather than numpy's float64 default) is
    what keeps expressions like ``x * 0.5`` from silently upcasting a
    float32 graph.
    """
    if isinstance(value, Tensor):
        if dtype is not None and value.dtype != np.dtype(dtype):
            return value.astype(dtype)
        return value
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype)
    elif not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(compute_dtype())
    elif arr.ndim == 0 and isinstance(value, float):
        # Python floats arrive as 0-d float64 arrays; treat them as "weak"
        # scalars that adopt the policy dtype instead of forcing promotion.
        arr = arr.astype(compute_dtype())
    return Tensor(arr)
