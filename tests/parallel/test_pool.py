"""Tests for the persistent forked worker pool and its crash detection."""

import os

import pytest

from repro.parallel import WorkerCrash, WorkerError, WorkerPool, resolve_workers


def echo(worker_id, message):
    return (worker_id, message)


@pytest.fixture
def pool():
    p = WorkerPool(2, echo, name="repro-test")
    p.start()
    yield p
    p.shutdown()


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


def call(pool, worker_id, message, timeout=None):
    pool.send(worker_id, message)
    return pool.recv(worker_id, timeout=timeout)


class TestRoundTrips:
    def test_call_reaches_the_right_worker(self, pool):
        assert call(pool, 0, "hello") == (0, "hello")
        assert call(pool, 1, "world") == (1, "world")

    def test_send_recv_in_worker_order(self, pool):
        for worker_id in range(2):
            pool.send(worker_id, "ping")
        assert [pool.recv(w) for w in range(2)] == [(0, "ping"), (1, "ping")]

    def test_workers_are_separate_processes(self, pool):
        def pid(worker_id, message):
            return os.getpid()

        p = WorkerPool(2, pid)
        p.start()
        try:
            pids = [call(p, worker_id, None) for worker_id in range(2)]
            assert len(set(pids)) == 2
            assert os.getpid() not in pids
        finally:
            p.shutdown()

    def test_closure_state_is_inherited_via_fork(self):
        payload = {"token": 12345}

        def handler(worker_id, message):
            return payload["token"] + message

        p = WorkerPool(1, handler)
        p.start()
        try:
            assert call(p, 0, 1) == 12346
        finally:
            p.shutdown()


class TestErrors:
    def test_handler_exception_carries_remote_traceback(self, pool):
        def boom(worker_id, message):
            raise RuntimeError("kaboom in the child")

        p = WorkerPool(1, boom)
        p.start()
        try:
            with pytest.raises(WorkerError) as excinfo:
                call(p, 0, None)
            assert "kaboom in the child" in excinfo.value.remote_traceback
            assert excinfo.value.worker_id == 0
            # The worker survives its handler raising.
            assert p._workers[0].process.is_alive()
        finally:
            p.shutdown()

    def test_recv_timeout(self, pool):
        with pytest.raises(TimeoutError):
            pool.recv(0, timeout=0.1)


class TestCrashRecovery:
    def test_killed_worker_raises_worker_crash(self, pool):
        pool.send(0, "before-death")
        pool.recv(0)
        pool.kill(0)
        pool.send(1, "still-fine")  # sibling unaffected
        with pytest.raises(WorkerCrash):
            call(pool, 0, "into-the-void", timeout=10)
        assert pool.recv(1) == (1, "still-fine")

    def test_shutdown_is_idempotent(self):
        p = WorkerPool(2, echo)
        p.start()
        p.shutdown()
        p.shutdown()
        assert p._workers == [None, None]

    def test_shutdown_survives_dead_workers(self):
        p = WorkerPool(2, echo)
        p.start()
        p.kill(0)
        p.shutdown()
        assert p._workers == [None, None]

    def test_num_workers_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0, echo)
