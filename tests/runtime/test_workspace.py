"""Tests for the hot-path scratch-buffer pool."""

import threading

import numpy as np
import pytest

from repro.runtime import Workspace, clear_workspace, get_workspace


@pytest.fixture(autouse=True)
def _clean():
    clear_workspace()
    yield
    clear_workspace()


class TestPooling:
    def test_release_then_acquire_reuses_buffer(self):
        ws = Workspace()
        buf = ws.acquire((4, 8), np.float64)
        ws.release(buf)
        again = ws.acquire((4, 8), np.float64)
        assert again is buf
        assert ws.hits == 1 and ws.misses == 1

    def test_shape_and_dtype_key_separately(self):
        ws = Workspace()
        ws.release(ws.acquire((4, 8), np.float64))
        assert ws.acquire((8, 4), np.float64).shape == (8, 4)
        assert ws.acquire((4, 8), np.float32).dtype == np.float32
        assert ws.hits == 0 and ws.misses == 3

    def test_max_per_key_caps_retention(self):
        ws = Workspace(max_per_key=2)
        bufs = [ws.acquire((16,), np.float64) for _ in range(4)]
        for buf in bufs:
            ws.release(buf)
        assert ws.cached_buffers == 2

    def test_double_release_hands_out_one_copy(self):
        ws = Workspace()
        buf = ws.acquire((4,), np.float64)
        ws.release(buf)
        ws.release(buf)
        first = ws.acquire((4,), np.float64)
        second = ws.acquire((4,), np.float64)
        assert first is not second

    def test_views_and_noncontiguous_are_not_pooled(self):
        ws = Workspace()
        base = np.zeros((4, 4))
        ws.release(base[1:])          # view
        ws.release(base.T)            # non-contiguous
        ws.release("not an array")    # nonsense tolerated
        assert ws.cached_buffers == 0

    def test_clear_resets_everything(self):
        ws = Workspace()
        ws.release(ws.acquire((4,), np.float64))
        ws.clear()
        assert ws.cached_buffers == 0
        assert ws.cached_bytes == 0
        assert ws.hits == 0 and ws.misses == 0

    def test_cached_bytes_counts_free_buffers(self):
        ws = Workspace()
        ws.release(ws.acquire((8,), np.float64))
        assert ws.cached_bytes == 8 * 8


def test_module_workspace_is_per_thread_singleton():
    assert get_workspace() is get_workspace()
    other = []
    thread = threading.Thread(target=lambda: other.append(get_workspace()))
    thread.start()
    thread.join()
    assert other[0] is not get_workspace()
