"""Benchmark-side call tracer for the ``repro`` layers.

The traced run wraps the public entry points of each ``repro.*`` layer
(``Dense.forward``, ``Tensor.backward``, ``Adam.step``, ``Attack.generate``
...) from here, so nothing inside ``src/`` changes.  Every wrapped call
records its inclusive time, its self time (inclusive minus the wrapped
calls it made) and a call count.  Calls carry a *category* (``nn``,
``attack``, ``autograd`` ...) so the tracer can also tell the outermost
call of a category apart from nested ones: an attack's inner forward
passes are attack time, not training-forward time.

The workload sets :attr:`Tracer.label` (a Table I method name, an eval
column) so counts and category times can be split per label.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "install_layer_wrappers", "WaitTimedLoader"]


class Tracer:
    """Aggregates inclusive/self time and counts of wrapped calls."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # category -> inclusive seconds of outermost calls of that category
        self.outer_s = defaultdict(float)
        # same, restricted to calls made outside any attack
        self.outer_free_s = defaultdict(float)
        self.label_calls = defaultdict(lambda: defaultdict(int))
        self.label_outer_s = defaultdict(lambda: defaultdict(float))
        # self seconds of calls on the thread that created the tracer
        self.main_self_s = 0.0
        self.samples = defaultdict(list)
        self.keep_samples = set()
        self.label = None
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- wrapping -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, category: str) -> None:
        """Replace ``owner.attr`` by a timed wrapper (undone by :meth:`close`).

        ``owner`` is a class (plain methods only), a module, or an
        instance (the bound method is wrapped on that instance).
        """
        original = getattr(owner, attr)
        previous = vars(owner).get(attr)
        setattr(owner, attr, self.timed(name, category, original))
        self._undo.append((owner, attr, previous))

    def timed(self, name: str, category: str, fn):
        """``fn`` wrapped so each call is recorded under ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, category, fn, args, kwargs)

        return wrapper

    def close(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- recording ------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local.stack, local.depth

    def _call(self, name, category, fn, args, kwargs):
        stack, depth = self._state()
        in_attack = depth["attack"] > 0
        outermost = depth[category] == 0
        depth[category] += 1
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            depth[category] -= 1
            if stack:
                stack[-1] += elapsed
            own = elapsed - child
            label = self.label
            with self._lock:
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += own
                self.label_calls[label][name] += 1
                if outermost:
                    self.outer_s[category] += elapsed
                    self.label_outer_s[label][category] += elapsed
                    if not in_attack and category != "attack":
                        self.outer_free_s[category] += elapsed
                if threading.get_ident() == self._main:
                    self.main_self_s += own
                if name in self.keep_samples:
                    self.samples[name].append(elapsed)

    def snapshot(self) -> dict:
        """Copy of the per-category times recorded so far."""
        with self._lock:
            return {
                "outer_s": dict(self.outer_s),
                "outer_free_s": dict(self.outer_free_s),
            }


class WaitTimedLoader:
    """Loader proxy recording the time each ``next()`` blocks as ``data.wait``."""

    def __init__(self, loader, tracer: Tracer) -> None:
        self.loader = loader
        self._next = tracer.timed("data.wait", "data", next)

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        batches = iter(self.loader)
        while True:
            batch = self._next(batches, None)
            if batch is None:
                return
            yield batch


def _defining_class(cls, attr):
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public per-layer entry points of every ``repro`` layer.

    Class-level wrappers, so every instance (including models built after
    this call) is covered.  Undo with :meth:`Tracer.close`.
    """
    from repro import nn
    from repro.attacks import base as attack_base
    from repro.attacks.loop import AttackLoop, GradientStep
    from repro.autograd import Tensor
    from repro.data import SyntheticSource
    from repro.defenses.delta import DeltaStore
    from repro.eval import robustness
    from repro.models.classifier import FeatureClassifier
    from repro.nn import losses
    from repro.optim.optimizer import Optimizer

    layer_names = {
        "nn.dense": (nn.Dense,),
        "nn.conv": (nn.Conv2d,),
        "nn.pool": (nn.MaxPool2d, nn.AvgPool2d),
        "nn.act": (nn.ReLU, nn.LeakyReLU, nn.Sigmoid, nn.Tanh),
        "nn.shape": (nn.Flatten,),
    }
    for name, classes in layer_names.items():
        owners = {_defining_class(cls, "forward") for cls in classes}
        for owner in owners:
            tracer.wrap(owner, "forward", name, "nn")
    # One model pass = one ``embed`` call (``forward`` and ATDA both go
    # through it); ``forward`` itself is wrapped too so the head's Dense
    # call nests under a model span.
    tracer.wrap(FeatureClassifier, "embed", "nn.embed", "nn")
    tracer.wrap(FeatureClassifier, "forward", "nn.model", "nn")
    tracer.wrap(losses, "softmax_cross_entropy", "nn.loss", "nn")
    tracer.wrap(Tensor, "backward", "autograd.backward", "autograd")
    optimizers = {
        _defining_class(cls, "step") for cls in _subclasses(Optimizer)
    }
    for owner in optimizers:
        tracer.wrap(owner, "step", "optim.step", "optim")
    for cls in {_defining_class(c, "generate")
                for c in _subclasses(attack_base.Attack)}:
        tracer.wrap(cls, "generate", "attacks.generate", "attack")
    tracer.wrap(AttackLoop, "step", "attacks.loop_step", "attack")
    tracer.wrap(GradientStep, "__call__", "attacks.step", "attack")
    tracer.wrap(DeltaStore, "lookup", "defenses.delta", "attack")
    tracer.wrap(DeltaStore, "store", "defenses.delta", "attack")
    tracer.wrap(robustness, "clean_accuracy", "eval.cell", "eval")
    tracer.wrap(robustness, "robust_accuracy", "eval.cell", "eval")
    tracer.wrap(SyntheticSource, "shard", "data.render", "render")
