"""Fork-safety regression tests for the workspace pool, telemetry and the
kernel lanes.

Worker processes are forked mid-run, potentially while the parent holds a
telemetry lock, a populated scratch-buffer pool or running kernel lanes.
The ``os.register_at_fork`` hooks in :mod:`repro.runtime.workspace`,
:mod:`repro.telemetry.core` and :mod:`repro.autograd._lanes` must hand
every child a fresh pool, an empty span stack, cleanly re-created locks, no
inherited sinks and no inherited lane threads — otherwise the first worker
step deadlocks or double-counts.
"""

import ast
import hashlib
import multiprocessing
import os
import select
import signal

import numpy as np

from repro import telemetry as tel
from repro.autograd import Tensor, conv2d
from repro.parallel import parallel_map
from repro.runtime.workspace import get_workspace
from repro.telemetry import core as tel_core
from tests.helpers import kernel_lanes

_FORK = multiprocessing.get_context("fork")


def _fork_and_inspect(inspect):
    """Fork a child, run ``inspect()`` there, ship the result back."""
    parent_conn, child_conn = _FORK.Pipe()

    def body():
        try:
            child_conn.send(("ok", inspect()))
        except Exception as exc:  # pragma: no cover - failure reporting
            child_conn.send(("error", repr(exc)))

    process = _FORK.Process(target=body, daemon=True)
    process.start()
    assert parent_conn.poll(10), "child never reported"
    status, payload = parent_conn.recv()
    process.join(timeout=5)
    assert status == "ok", payload
    return payload


class TestWorkspaceForkSafety:
    def test_child_pool_is_empty(self):
        workspace = get_workspace()
        buffer = workspace.acquire((64, 64), np.float64)
        workspace.release(buffer)
        assert workspace.cached_buffers > 0

        def inspect():
            child = get_workspace()
            return {
                "buffers": child.cached_buffers,
                "hits": child.hits,
                "misses": child.misses,
                "bytes": child.cached_bytes,
            }

        stats = _fork_and_inspect(inspect)
        assert stats == {"buffers": 0, "hits": 0, "misses": 0, "bytes": 0}
        # The parent's pool is untouched.
        assert workspace.cached_buffers > 0

    def test_child_pool_is_usable(self):
        def inspect():
            child = get_workspace()
            buffer = child.acquire((8,), np.float64)
            child.release(buffer)
            again = child.acquire((8,), np.float64)
            return again is buffer

        assert _fork_and_inspect(inspect) in (True, False)  # no deadlock/raise


class TestTelemetryForkSafety:
    def test_child_has_no_inherited_span_stack(self):
        previous = tel.set_enabled(True)
        try:
            with tel.span("parent-open"):

                def inspect():
                    return {
                        "stack": len(tel_core._state.stack),
                        "sinks": len(tel_core._sinks),
                    }

                state = _fork_and_inspect(inspect)
        finally:
            tel.set_enabled(previous)
        assert state == {"stack": 0, "sinks": 0}

    def test_child_locks_are_acquirable_even_if_parent_held_them(self):
        """Fork while holding both telemetry locks: the child must not
        inherit a locked lock (the owning thread does not exist there)."""

        def inspect():
            metrics_ok = tel_core._metrics._lock.acquire(timeout=1)
            if metrics_ok:
                tel_core._metrics._lock.release()
            sinks_ok = tel_core._sinks_lock.acquire(timeout=1)
            if sinks_ok:
                tel_core._sinks_lock.release()
            # A counter update exercises the lock end-to-end.
            tel.set_enabled(True)
            tel.counter("forksafe.probe")
            return metrics_ok and sinks_ok

        with tel_core._metrics._lock, tel_core._sinks_lock:
            assert _fork_and_inspect(inspect) is True

    def test_child_metrics_start_empty(self):
        previous = tel.set_enabled(True)
        try:
            tel.counter("forksafe.parent_counter", 3.0)

            def inspect():
                return dict(tel_core._metrics.snapshot()["counters"])

            counters = _fork_and_inspect(inspect)
        finally:
            tel.set_enabled(previous)
        assert "forksafe.parent_counter" not in counters

    def test_worker_pool_children_can_emit_telemetry(self):
        """End-to-end: parallel_map's forked workers record spans and
        counters without touching the parent's metrics."""
        previous = tel.set_enabled(True)
        try:
            tel.counter("forksafe.parent_only")

            def handler(_):
                with tel.span("child-work"):
                    tel.counter("forksafe.child_only")
                snap = tel_core._metrics.snapshot()["counters"]
                return sorted(snap)

            for child_counters in parallel_map(
                handler, [0, 1], num_workers=2
            ):
                assert "forksafe.child_only" in child_counters
                assert "forksafe.parent_only" not in child_counters
            parent = tel_core._metrics.snapshot()["counters"]
            assert "forksafe.child_only" not in parent
        finally:
            tel.set_enabled(previous)


def _conv_digest(_=None):
    """Digest of a conv2-shaped forward and backward (several blocks)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(32, 16, 14, 14)), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 16, 3, 3)), requires_grad=True)
    out = conv2d(x, w, padding=1)
    out.backward(np.ones(out.shape))
    digest = hashlib.sha256()
    for array in (out.data, x.grad, w.grad):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _finishes_in_fork(work, timeout=30.0):
    """Run ``work()`` in a raw ``os.fork`` child; its result, or ``None``
    if the child has not reported within ``timeout`` seconds (the child
    and everything it started are then killed)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            os.close(read_end)
            os.setpgid(0, 0)
            os.write(write_end, str(work()).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], timeout)
        result = os.read(read_end, 4096).decode() if ready else None
        if not ready:
            os.killpg(pid, signal.SIGKILL)
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    return result or None


class TestKernelLanesForkSafety:
    """A thread pool inherited through fork keeps its dead threads'
    bookkeeping and never runs a task: a child that ran a conv on the
    parent's lanes would hang."""

    def test_raw_fork_child_runs_a_conv_on_two_lanes(self):
        with kernel_lanes(2):
            expected = _conv_digest()  # the parent's lanes are now running
            assert _finishes_in_fork(_conv_digest) == expected

    def test_grid_workers_run_a_conv(self):
        """The workers run one lane and one BLAS thread; the parent's BLAS
        may run more, which can change the weight gradient's rounding, so
        the workers are compared with each other."""
        with kernel_lanes(2):
            _conv_digest()
            result = _finishes_in_fork(
                lambda: parallel_map(_conv_digest, [0, 1], num_workers=2)
            )
        assert result is not None, "a grid worker hung"
        first, second = ast.literal_eval(result)
        assert first == second
