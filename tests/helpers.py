"""Shared numeric helpers for the test suite."""

import contextlib

import numpy as np

from repro.autograd import Tensor
from repro.autograd.engine import Function
from repro.models.classifier import FeatureClassifier


def box_tol(arr) -> float:
    """Absolute tolerance for l_inf box/ball bound checks, dtype-aware.

    Projections compute ``x + clip(x_adv - x, -eps, eps)``; the subtract
    and re-add each round in the array's dtype, so the recovered
    perturbation can overshoot the bound by a few ulps.  That slack is
    ~1e-16 at float64 (the historical 1e-12 tolerance is kept) but ~1e-8
    at float32, where 1e-12 is far below one ulp of typical pixel values.
    """
    finfo = np.finfo(np.asarray(arr).dtype)
    return max(1e-12, 16.0 * float(finfo.eps))


def in_layout(arr, layout):
    """``arr`` (NCHW-shaped) copied into the given memory layout: "nchw"
    (C-contiguous) or "nhwc" (the NCHW view of NHWC memory that conv and
    pool outputs are)."""
    if layout == "nchw":
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@contextlib.contextmanager
def count_passes(reached=None):
    """Count model passes and autograd work while the block runs.

    Yields a dict of running counts: ``forward`` (one model pass is one
    ``FeatureClassifier.embed`` call), ``backward`` (``Tensor.backward``
    calls) and ``ops`` (autograd ``Function.apply`` calls, i.e. recorded
    operations).  Counts are deterministic, unlike wall-clock time, so
    they carry the paper's cost orderings on a loaded machine too.  If
    ``reached`` is a set, every applied ``Function`` class is added to it.
    """
    counts = {"forward": 0, "backward": 0, "ops": 0}
    real_embed = FeatureClassifier.embed
    real_backward = Tensor.backward
    real_apply = Function.__dict__["apply"]

    def embed(*args, **kwargs):
        counts["forward"] += 1
        return real_embed(*args, **kwargs)

    def backward(*args, **kwargs):
        counts["backward"] += 1
        return real_backward(*args, **kwargs)

    def apply(cls, *args, **kwargs):
        counts["ops"] += 1
        if reached is not None:
            reached.add(cls)
        return real_apply.__func__(cls, *args, **kwargs)

    FeatureClassifier.embed = embed
    Tensor.backward = backward
    Function.apply = classmethod(apply)
    try:
        yield counts
    finally:
        FeatureClassifier.embed = real_embed
        Tensor.backward = real_backward
        Function.apply = real_apply


def passes_per_batch(trainer, loader):
    """:func:`count_passes` counts per batch over one training epoch."""
    with count_passes() as counts:
        trainer.train_epoch(loader)
    return {key: value / len(loader) for key, value in counts.items()}
