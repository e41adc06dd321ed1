"""Runtime services shared by every layer of the stack.

Hosts the precision policy (see :mod:`repro.runtime.policy`): a
process-default plus thread-local stack of :class:`Policy` objects that
centralises every dtype decision — tensor creation, gradient accumulation,
parameter initialisation, dataset emission and attack arithmetic.

    from repro import runtime

    runtime.set_default_policy("float32")
    with runtime.precision("float64"):
        ...

Also hosts the scratch-buffer workspace (see
:mod:`repro.runtime.workspace`): a per-thread pool the hot-path kernels
(pooling im2col, batch casts, backward accumulation) recycle their large
buffers through.
"""

from .policy import (
    Policy,
    PolicyLike,
    active_policy,
    compute_dtype,
    ensure_float_array,
    get_default_policy,
    grad_check_dtype,
    precision,
    resolve_policy,
    set_default_policy,
)
from .workspace import (
    Workspace,
    clear_workspace,
    get_workspace,
)

__all__ = [
    "Policy",
    "PolicyLike",
    "active_policy",
    "get_default_policy",
    "set_default_policy",
    "resolve_policy",
    "precision",
    "compute_dtype",
    "grad_check_dtype",
    "ensure_float_array",
    "Workspace",
    "get_workspace",
    "clear_workspace",
]
