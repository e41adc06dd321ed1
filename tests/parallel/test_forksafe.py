"""Fork-safety regression tests for the workspace pool and telemetry.

Worker processes are forked mid-run, potentially while the parent holds a
telemetry lock or a populated scratch-buffer pool.  The
``os.register_at_fork`` hooks in :mod:`repro.runtime.workspace` and
:mod:`repro.telemetry.core` must hand every child a fresh pool, an empty
span stack, cleanly re-created locks and no inherited sinks — otherwise the
first worker step deadlocks or double-counts.
"""

import multiprocessing

import numpy as np

from repro import telemetry as tel
from repro.parallel import parallel_map
from repro.runtime.workspace import get_workspace
from repro.telemetry import core as tel_core

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
