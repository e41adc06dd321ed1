"""Canonical attack registry and ``name:param=value`` spec grammar.

Every layer that names attacks — the defense trainers, the robustness and
transfer evaluators, the experiment runners, the benchmarks and the CLI —
resolves them here, through one table.  Before this registry existed the
same names were spelled three slightly different ways (``attacks/__init__``
exports, ``defenses/registry`` row names, ad-hoc constructor calls); now a
single spec string builds any attack against any model:

* ``"fgsm"`` — canonical name, library defaults;
* ``"bim:num_steps=30"`` — parameters after a colon, comma-separated;
* ``"pgd:num_steps=10,rng=0"`` — ints, floats and booleans are coerced
  automatically;
* ``"bim10"`` / ``"bim30"`` — paper-style aliases (Table I columns);
* ``"clean"`` / ``"none"`` — the no-attack baseline (resolves to ``None``,
  which evaluators treat as clean accuracy).

``epsilon`` deserves a note: every attack requires a budget, but the right
value is experiment-wide (0.25 digits / 0.2 fashion), so ``build_attack``
accepts it as a keyword default that a spec's explicit ``epsilon=...``
overrides.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .base import Attack
from .bim import BIM
from .fgsm import FGSM
from .noise import RandomNoise
from .pgd import PGD
from .spsa import SPSA

__all__ = [
    "AttackSpec",
    "register_attack",
    "attack_names",
    "canonical_attack_name",
    "parse_attack_spec",
    "check_attack_spec",
    "build_attack",
]

# Spec names that mean "no attack" (clean evaluation).
_CLEAN_NAMES = ("clean", "none", "original")


@dataclass(frozen=True)
class AttackSpec:
    """A parsed ``name:param=value,...`` attack specification."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Back to spec-string form (canonical name, sorted params)."""
        if not self.params:
            return self.name
        body = ",".join(
            f"{key}={value}" for key, value in sorted(self.params.items())
        )
        return f"{self.name}:{body}"


@dataclass(frozen=True)
class _Entry:
    cls: type
    defaults: Tuple[Tuple[str, object], ...] = ()


_REGISTRY: Dict[str, _Entry] = {}
_ALIASES: Dict[str, AttackSpec] = {}


def register_attack(name: str, cls: type, **defaults) -> type:
    """Register an attack class under a canonical name.

    ``defaults`` are constructor keywords applied before any spec params;
    use :func:`register_alias` for parameterised shorthands instead.
    """
    key = name.strip().lower()
    _REGISTRY[key] = _Entry(cls, defaults=tuple(defaults.items()))
    return cls


def register_alias(alias: str, spec: str) -> None:
    """Register a shorthand that expands to a full spec string."""
    _ALIASES[alias.strip().lower()] = parse_attack_spec(spec)


def attack_names() -> Tuple[str, ...]:
    """Canonical attack names, sorted (aliases not included)."""
    return tuple(sorted(_REGISTRY))


def canonical_attack_name(name: str) -> str:
    """Resolve a name or alias to its canonical registry name."""
    key = name.strip().lower()
    if key in _CLEAN_NAMES:
        return "clean"
    if key in _ALIASES:
        return _ALIASES[key].name
    if key in _REGISTRY:
        return key
    raise KeyError(
        f"unknown attack {name!r}; choose from "
        f"{attack_names() + tuple(sorted(_ALIASES)) + ('clean',)}"
    )


def _coerce(value: str):
    """Coerce a spec-string value: int, float, bool, None or str."""
    text = value.strip()
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_attack_spec(spec) -> AttackSpec:
    """Parse ``"name"`` or ``"name:key=value,key=value"`` into a spec.

    Already-parsed :class:`AttackSpec` instances pass through unchanged.
    """
    if isinstance(spec, AttackSpec):
        return spec
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"attack spec must be a non-empty string, got {spec!r}")
    name, _, body = spec.partition(":")
    name = name.strip().lower()
    params: Dict[str, object] = {}
    if body.strip():
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed attack spec {spec!r}: expected "
                    f"'key=value', got {item!r}"
                )
            params[key] = _coerce(value)
    # Expand aliases, with spec params overriding alias params.
    if name in _ALIASES:
        alias = _ALIASES[name]
        merged = dict(alias.params)
        merged.update(params)
        return AttackSpec(alias.name, merged)
    return AttackSpec(name, params)


def _accepted_params(cls: type) -> Tuple[str, ...]:
    """Keyword parameters ``cls(model, ...)`` accepts, following ``**kwargs``
    up the constructor chain to the first ``__init__`` without them."""
    names = set()
    for klass in cls.__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        params = list(inspect.signature(init).parameters.values())[2:]
        names.update(
            p.name for p in params
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break
    return ("epsilon",) + tuple(sorted(names - {"epsilon"}))


def check_attack_spec(spec) -> AttackSpec:
    """Parse ``spec`` and check it names a registered attack and only
    parameters that attack's constructor accepts, without building it.

    Raises ``KeyError`` for an unknown name and ``ValueError`` (naming the
    accepted parameters) for an unknown parameter.
    """
    parsed = parse_attack_spec(spec)
    name = canonical_attack_name(parsed.name)
    if name == "clean":
        return parsed
    accepted = _accepted_params(_REGISTRY[name].cls)
    unknown = sorted(set(parsed.params) - set(accepted))
    if unknown:
        raise ValueError(
            f"attack {parsed.name!r} takes no parameter(s) "
            f"{', '.join(unknown)}; accepted: {', '.join(accepted)}"
        )
    return parsed


def build_attack(
    spec,
    model,
    *,
    epsilon: Optional[float] = None,
    **overrides,
) -> Optional[Attack]:
    """Construct the attack a spec describes, bound to ``model``.

    Parameters
    ----------
    spec:
        Spec string, alias, or :class:`AttackSpec`.
    model:
        Victim classifier the attack is bound to.
    epsilon:
        Experiment-wide budget, used when the spec does not name one
        explicitly.
    overrides:
        Extra constructor keywords (e.g. ``loss_fn=margin_loss``); spec
        params take precedence over these.

    Returns ``None`` for the clean/no-attack spec, matching the evaluator
    convention that a ``None`` attack means clean accuracy.
    """
    parsed = check_attack_spec(spec)
    if parsed.name in _CLEAN_NAMES:
        return None
    entry = _REGISTRY[parsed.name]
    kwargs: Dict[str, object] = dict(entry.defaults)
    kwargs.update(overrides)
    kwargs.update(parsed.params)
    budget = kwargs.pop("epsilon", None)
    if budget is None:
        budget = epsilon
    if budget is None:
        raise ValueError(
            f"attack {parsed.name!r} needs an epsilon; pass it in the "
            f"spec ('{parsed.name}:epsilon=0.25') or as a keyword"
        )
    return entry.cls(model, budget, **kwargs)


# ----------------------------------------------------------------------
# The canonical table.
# ----------------------------------------------------------------------
register_attack("fgsm", FGSM)
register_attack("bim", BIM)
register_attack("pgd", PGD)
register_attack("spsa", SPSA)
register_attack("noise", RandomNoise)

register_alias("random_noise", "noise")
register_alias("bim10", "bim:num_steps=10")
register_alias("bim30", "bim:num_steps=30")
