"""Tests for validation helpers."""

import numpy as np
import pytest

from repro.utils import (
    check_image_batch,
    check_in_unit_interval,
    check_labels,
    check_positive,
)


class TestScalarChecks:
    def test_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_unit_interval(self):
        check_in_unit_interval("x", 0.0)
        check_in_unit_interval("x", 1.0)
        with pytest.raises(ValueError):
            check_in_unit_interval("x", 1.1)



class TestImageBatch:
    def test_valid(self):
        assert check_image_batch(np.zeros((2, 1, 4, 4))) == (2, 1, 4, 4)

    def test_wrong_ndim(self):
        with pytest.raises(ValueError, match="NCHW"):
            check_image_batch(np.zeros((4, 4)))


class TestLabels:
    def test_valid(self):
        out = check_labels(np.array([0, 1, 2]), 3)
        assert out.dtype == np.int64

    def test_float_integral_ok(self):
        out = check_labels(np.array([0.0, 1.0]), 2)
        assert np.issubdtype(out.dtype, np.integer)

    def test_float_fractional_raises(self):
        with pytest.raises(ValueError, match="integers"):
            check_labels(np.array([0.5]), 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_labels(np.array([3]), 3)
        with pytest.raises(ValueError):
            check_labels(np.array([-1]), 3)

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            check_labels(np.zeros((2, 2), dtype=int), 3)
