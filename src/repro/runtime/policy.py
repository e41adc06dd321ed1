"""Runtime precision policy: the single source of truth for dtypes.

Every numeric decision in the stack — what dtype tensors are created in
and gradients accumulate in, and what dtype numerical gradient checking
is pinned to — is resolved against the *active* :class:`Policy`.
Nothing else in the package hardcodes ``np.float64``/``np.float32``.

The active policy is resolved in two layers:

1. a process-wide **default** (set by :func:`set_default_policy`, or the
   ``REPRO_DTYPE`` environment variable at import time), and
2. a **thread-local stack** pushed/popped by the :func:`precision` context
   manager, so one thread can temporarily run at a different precision
   without affecting concurrent workers.

Typical use::

    from repro import runtime

    runtime.set_default_policy("float32")          # whole process
    with runtime.precision("float64"):             # one scoped region
        ...

Design notes
------------
``compute_dtype``
    Dtype of freshly created tensors/parameters/datasets, of all
    forward/backward arithmetic and of leaf-gradient accumulation.
    Operations never recast floating inputs: they compute in whatever
    floating dtype their operands carry, so a float64 region (e.g.
    gradient checking) stays float64 even while a float32 policy is
    active.
``grad_check_dtype``
    Dtype :mod:`repro.autograd.grad_check` pins itself to, *regardless* of
    the active compute dtype.  Central finite differences with ``eps ~ 1e-6``
    are meaningless in float32, so this defaults to float64 and the checker
    enters a nested float64 policy for the duration of the check.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

__all__ = [
    "Policy",
    "PolicyLike",
    "active_policy",
    "get_default_policy",
    "set_default_policy",
    "precision",
    "compute_dtype",
    "grad_check_dtype",
    "ensure_float_array",
]

#: Names accepted wherever a policy is expected.
PolicyLike = Union["Policy", str, type, np.dtype, None]

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_float_dtype(value) -> np.dtype:
    """Validate and normalise a dtype-like into a supported float dtype."""
    try:
        dtype = np.dtype(value)
    except TypeError:
        supported = ", ".join(d.name for d in _SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported precision dtype {value!r}; "
            f"choose one of: {supported}"
        ) from None
    if dtype not in _SUPPORTED_DTYPES:
        supported = ", ".join(d.name for d in _SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported precision dtype {dtype.name!r}; "
            f"choose one of: {supported}"
        )
    return dtype


@dataclass(frozen=True)
class Policy:
    """An immutable precision policy.

    Parameters
    ----------
    compute_dtype:
        Dtype for tensor/parameter/dataset creation, arithmetic and
        leaf-gradient accumulation.
    grad_check_dtype:
        Dtype gradient checking pins itself to; defaults to float64.
    """

    compute_dtype: np.dtype = field(default=np.dtype(np.float64))
    grad_check_dtype: np.dtype = field(default=np.dtype(np.float64))

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "compute_dtype", _as_float_dtype(self.compute_dtype)
        )
        object.__setattr__(
            self, "grad_check_dtype", _as_float_dtype(self.grad_check_dtype)
        )

    @classmethod
    def from_dtype(cls, dtype) -> "Policy":
        """Policy computing and accumulating in ``dtype`` (grad check f64)."""
        return cls(compute_dtype=_as_float_dtype(dtype))

    def __repr__(self) -> str:
        return (
            f"Policy(compute={self.compute_dtype.name}, "
            f"grad_check={self.grad_check_dtype.name})"
        )


def resolve_policy(policy: PolicyLike) -> Policy:
    """Coerce a policy, dtype name, or ``None`` (=active) into a Policy."""
    if policy is None:
        return active_policy()
    if isinstance(policy, Policy):
        return policy
    return Policy.from_dtype(policy)


# ----------------------------------------------------------------------
# default + thread-local stack
# ----------------------------------------------------------------------
def _default_from_env() -> Policy:
    name = os.environ.get("REPRO_DTYPE", "").strip()
    if not name:
        return Policy()
    try:
        return Policy.from_dtype(name)
    except ValueError as exc:
        raise ValueError(f"invalid REPRO_DTYPE: {exc}") from None


_default_policy: Policy = _default_from_env()
_default_lock = threading.Lock()


class _PolicyStack(threading.local):
    """Per-thread stack of explicitly pushed policies."""

    def __init__(self) -> None:
        self.stack: list = []


_policy_stack = _PolicyStack()


def get_default_policy() -> Policy:
    """The process-wide default policy (bottom of every thread's stack)."""
    return _default_policy


def set_default_policy(policy: PolicyLike) -> Policy:
    """Set and return the process-wide default policy.

    Accepts a :class:`Policy` or a dtype name such as ``"float32"``.
    Does not affect regions currently inside a :func:`precision` block.
    """
    global _default_policy
    resolved = (
        policy if isinstance(policy, Policy) else Policy.from_dtype(policy)
    )
    with _default_lock:
        _default_policy = resolved
    return resolved


def active_policy() -> Policy:
    """The policy in effect for the calling thread."""
    stack = _policy_stack.stack
    return stack[-1] if stack else _default_policy


@contextlib.contextmanager
def precision(policy: PolicyLike) -> Iterator[Policy]:
    """Activate ``policy`` for the calling thread within a ``with`` block.

    ``policy`` may be a :class:`Policy` or a dtype name (``"float32"``).
    Nested blocks stack; each thread has its own stack, so a policy pushed
    in a worker thread never leaks into other threads.
    """
    resolved = (
        policy if isinstance(policy, Policy) else Policy.from_dtype(policy)
    )
    _policy_stack.stack.append(resolved)
    try:
        yield resolved
    finally:
        _policy_stack.stack.pop()


# ----------------------------------------------------------------------
# convenience accessors
# ----------------------------------------------------------------------
def compute_dtype() -> np.dtype:
    """Active policy's compute dtype."""
    return active_policy().compute_dtype


def grad_check_dtype() -> np.dtype:
    """Active policy's gradient-checking dtype (float64 by default)."""
    return active_policy().grad_check_dtype


def ensure_float_array(value, copy: bool = False) -> np.ndarray:
    """Coerce ``value`` to a floating numpy array without hidden upcasts.

    Floating input keeps its own dtype (a float64 grad-check region stays
    float64; a float32 batch stays float32); non-floating input (ints,
    bools, lists of Python numbers) is promoted to the active compute
    dtype.  This is the one conversion attacks, trainers and loaders use,
    replacing the scattered ``np.asarray(x, dtype=np.float64)`` calls.
    """
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.floating):
        return arr.astype(compute_dtype())
    if copy:
        return arr.copy()
    return arr
