"""Module/Parameter system: the backbone of the NN library.

A :class:`Module` owns :class:`Parameter` tensors and child modules, found
automatically through attribute assignment (the familiar torch-style
pattern).  Modules provide:

* recursive parameter iteration (for optimizers),
* train/eval mode switching,
* state-dict export/import of parameters (checkpointing),
* gradient zeroing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from ..autograd import Tensor
from ..runtime import compute_dtype

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor registered as a learnable parameter of a module.

    Created in the active precision policy's compute dtype; use
    :meth:`Module.to_dtype` to cast an existing module after construction
    (e.g. after loading a float64 checkpoint into a float32 session).
    """

    def __init__(self, data) -> None:
        super().__init__(
            np.asarray(data, dtype=compute_dtype()), requires_grad=True
        )

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, dtype={self.dtype})"


class Module:
    """Base class for all neural-network building blocks."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    # ------------------------------------------------------------------
    # attribute-based registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        """Compute the module's output; must be overridden."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement forward()"
        )

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # parameter/module iteration
    # ------------------------------------------------------------------
    def named_parameters(
        self, prefix: str = ""
    ) -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for _name, param in self.named_parameters():
            yield param

    def named_modules(
        self, prefix: str = ""
    ) -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` including ``self`` first."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        """Yield direct child modules."""
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------
    # precision
    # ------------------------------------------------------------------
    def to_dtype(self, dtype) -> "Module":
        """Cast all parameters and gradients to ``dtype``.

        In-place (parameter identity is preserved, so optimizers holding
        references keep working; their state buffers re-sync on the next
        ``step``).  Returns ``self`` for chaining — the cast-after-load path::

            model.load_state_dict(checkpoint)   # float64 checkpoint
            model.to_dtype("float32")
        """
        dtype = np.dtype(dtype)
        if not np.issubdtype(dtype, np.floating):
            raise TypeError(
                f"to_dtype requires a floating dtype, got {dtype}"
            )
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(dtype, copy=False)
        return self

    # ------------------------------------------------------------------
    # gradients
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Export parameters as a flat name→array mapping."""
        return OrderedDict(
            (name, param.data.copy())
            for name, param in self.named_parameters()
        )

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters exported by :meth:`state_dict`.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatch — silent partial loads hide bugs.
        """
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.shape}, got {value.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def extra_repr(self) -> str:
        """Extra ``repr`` details; override to describe hyper-parameters."""
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        if len(lines) == 1:
            return lines[0] + ")"
        lines.append(")")
        return "\n".join(lines)
