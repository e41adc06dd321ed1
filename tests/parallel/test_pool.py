"""Tests for the process pool behind parallel_map: worker counts, errors,
crash detection and what reaches the forked workers."""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.parallel import WorkerCrash, parallel_map, resolve_workers


class TestResolveWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4
        assert resolve_workers(0) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_invalid_counts_raise(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(-1)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestRoundTrips:
    def test_workers_are_separate_processes(self):
        # Neither call returns until both are running at once, so the two
        # items must sit in two different workers.
        barrier = multiprocessing.get_context("fork").Barrier(2)

        def pid(_):
            barrier.wait(timeout=30)
            return os.getpid()

        pids = parallel_map(pid, [0, 1], num_workers=2)
        assert len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_closure_state_is_inherited_via_fork(self):
        # A lock cannot be pickled: the callable reaches the workers
        # through fork alone.
        payload = {"token": 12345, "lock": threading.Lock()}

        def handler(message):
            with payload["lock"]:
                return payload["token"] + message

        assert parallel_map(handler, [1, 2], num_workers=2) == [12346, 12347]


class TestErrors:
    def test_handler_exception_carries_remote_traceback(self):
        def boom(x):
            if x == 1:
                raise RuntimeError("kaboom in the child")
            return x

        with pytest.raises(RuntimeError, match="kaboom") as excinfo:
            parallel_map(boom, [0, 1], num_workers=2)
        remote = str(excinfo.value.__cause__)
        assert "kaboom in the child" in remote
        assert "in boom" in remote


class TestCrashRecovery:
    def test_killed_worker_raises_worker_crash(self):
        def die(x):
            if x == "into-the-void":
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        with pytest.raises(WorkerCrash) as excinfo:
            parallel_map(die, ["into-the-void", "still-fine"], num_workers=2)
        assert "into-the-void" in str(excinfo.value)

    def test_shutdown_survives_dead_workers(self):
        with pytest.raises(WorkerCrash):
            parallel_map(lambda _: os._exit(3), [1, 2], num_workers=2)
        # Every worker was reaped: nothing is left running.
        assert multiprocessing.active_children() == []

    def test_num_workers_validation(self):
        with pytest.raises(ValueError):
            parallel_map(abs, [1, 2], num_workers=-1)
