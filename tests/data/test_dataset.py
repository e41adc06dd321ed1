"""Tests for dataset containers."""

import numpy as np
import pytest

from repro.data import TensorDataset


def make_dataset(n=10):
    x = np.arange(n * 4, dtype=np.float64).reshape(n, 4)
    y = np.arange(n) % 3
    return TensorDataset(x, y)


class TestTensorDataset:
    def test_len_getitem(self):
        ds = make_dataset(5)
        assert len(ds) == 5
        x, y = ds[2]
        assert x.shape == (4,)
        assert y == 2

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            TensorDataset(np.zeros((3, 2)), np.zeros(4))

    def test_arrays_returns_backing(self):
        ds = make_dataset(4)
        x, y = ds.arrays()
        assert x.shape == (4, 4)
        assert y.shape == (4,)
