"""Shared numeric helpers for the test suite."""

import numpy as np


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
