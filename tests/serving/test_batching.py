"""MicroBatcher unit tests: coalescing, backpressure, shutdown.

These run against a fake ``run_batch`` so the concurrency behaviour is
deterministic: a :class:`_GatedRunner` blocks the worker thread on demand,
letting tests arrange exactly how full the queue is when the behaviour
under test (shedding, draining, coalescing) fires.
"""

import sys
import threading

import pytest

from repro.serving import (
    MicroBatcher,
    QueueFullError,
    RequestTimeout,
    ServiceClosed,
)


class _GatedRunner:
    """Echo runner whose first ``calls_to_block`` batches wait on a gate."""

    def __init__(self, calls_to_block: int = 0) -> None:
        self.batches = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self._block_remaining = calls_to_block
        self._lock = threading.Lock()

    def __call__(self, payloads):
        with self._lock:
            should_block = self._block_remaining > 0
            if should_block:
                self._block_remaining -= 1
        self.entered.set()
        if should_block:
            assert self.release.wait(timeout=10.0), "test gate never released"
        self.batches.append(list(payloads))
        return [("ok", p) for p in payloads]


class TestBatching:
    def test_single_request_roundtrip(self):
        runner = _GatedRunner()
        batcher = MicroBatcher(runner, max_batch_size=4)
        try:
            futures = batcher.submit_many([7])
            assert batcher.gather(futures, timeout=5.0) == [("ok", 7)]
        finally:
            batcher.close()

    def test_queued_requests_coalesce_into_one_batch(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=8, queue_depth=16)
        try:
            (first,) = batcher.submit_many([0])
            assert runner.entered.wait(timeout=5.0)
            # The worker is blocked inside batch #1; these queue up behind
            # it and must coalesce into a single batch #2.
            rest = [batcher.submit_many([i])[0] for i in (1, 2, 3)]
            runner.release.set()
            assert first.result(timeout=5.0) == ("ok", 0)
            assert [f.result(timeout=5.0) for f in rest] == [
                ("ok", 1), ("ok", 2), ("ok", 3),
            ]
            assert runner.batches == [[0], [1, 2, 3]]
        finally:
            batcher.close()

    def test_max_batch_size_bounds_coalescing(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=2, queue_depth=16)
        try:
            futures = batcher.submit_many([0])
            assert runner.entered.wait(timeout=5.0)
            for i in (1, 2, 3, 4):
                futures.extend(batcher.submit_many([i]))
            runner.release.set()
            for i, future in enumerate(futures):
                assert future.result(timeout=5.0) == ("ok", i)
            assert runner.batches == [[0], [1, 2], [3, 4]]
        finally:
            batcher.close()

    def test_results_keep_request_order_within_batch(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=16, queue_depth=32)
        try:
            (head,) = batcher.submit_many(["head"])
            assert runner.entered.wait(timeout=5.0)
            futures = {i: batcher.submit_many([i])[0] for i in range(10)}
            runner.release.set()
            head.result(timeout=5.0)
            for i, future in futures.items():
                assert future.result(timeout=5.0) == ("ok", i)
        finally:
            batcher.close()


class TestBackpressure:
    def test_full_queue_sheds_with_documented_error(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=1, queue_depth=2)
        try:
            (blocked,) = batcher.submit_many(["in-flight"])
            assert runner.entered.wait(timeout=5.0)
            queued = batcher.submit_many([0, 1])  # fills the queue
            with pytest.raises(QueueFullError) as excinfo:
                batcher.submit_many(["one too many"])
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.status == 429
            assert batcher.stats["shed"] == 1
            runner.release.set()
            blocked.result(timeout=5.0)
            for future in queued:
                future.result(timeout=5.0)
        finally:
            batcher.close()

    def test_missed_deadline_raises_request_timeout(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=1, queue_depth=4)
        try:
            futures = batcher.submit_many(["slow", "late"])
            with pytest.raises(RequestTimeout) as excinfo:
                batcher.gather(futures, timeout=0.05)
            assert excinfo.value.code == "timeout"
            assert excinfo.value.status == 504
            # One late group is one timeout, however many results it lacks.
            assert batcher.stats["timeouts"] == 1
        finally:
            runner.release.set()
            batcher.close()

    def test_runner_exception_propagates_to_every_caller(self):
        def explode(payloads):
            raise RuntimeError("model on fire")

        batcher = MicroBatcher(explode, max_batch_size=4, queue_depth=8)
        try:
            (future,) = batcher.submit_many([1])
            with pytest.raises(RuntimeError, match="model on fire"):
                future.result(timeout=5.0)
            # The worker survives a failing batch and serves the next one.
            (future,) = batcher.submit_many([2])
            with pytest.raises(RuntimeError, match="model on fire"):
                future.result(timeout=5.0)
        finally:
            batcher.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda p: p, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda p: p, queue_depth=0)


class TestShutdown:
    def test_graceful_close_completes_in_flight_requests(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=4, queue_depth=32)
        in_flight = batcher.submit_many(list(range(6)))
        assert runner.entered.wait(timeout=5.0)
        closer = threading.Thread(target=batcher.close)
        closer.start()
        runner.release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        # Every request admitted before close() resolved with a result.
        assert [f.result(timeout=1.0) for f in in_flight] == [
            ("ok", i) for i in range(6)
        ]

    def test_submit_after_close_raises_service_closed(self):
        batcher = MicroBatcher(lambda p: list(p), max_batch_size=2)
        batcher.close()
        with pytest.raises(ServiceClosed) as excinfo:
            batcher.submit_many([1])
        assert excinfo.value.code == "shutting_down"
        assert excinfo.value.status == 503

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(lambda p: list(p), max_batch_size=2)
        batcher.close()
        batcher.close()
        assert batcher.closed


class TestGroupAdmission:
    def test_group_on_idle_batcher_forms_one_batch(self):
        runner = _GatedRunner()
        batcher = MicroBatcher(runner, max_batch_size=8, queue_depth=16)
        try:
            futures = batcher.submit_many(list(range(6)))
            assert [f.result(timeout=5.0) for f in futures] == [
                ("ok", i) for i in range(6)
            ]
            # Admission is atomic, so the idle worker wakes to the whole
            # group even with no coalescing window.
            assert runner.batches == [list(range(6))]
        finally:
            batcher.close()

    def test_group_behind_busy_worker_stays_one_batch(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=8, queue_depth=16)
        try:
            (head,) = batcher.submit_many(["head"])
            assert runner.entered.wait(timeout=5.0)
            group = batcher.submit_many(list(range(5)))
            assert batcher.stats["queue_depth"] == 5
            runner.release.set()
            head.result(timeout=5.0)
            for f in group:
                f.result(timeout=5.0)
            assert runner.batches == [["head"], list(range(5))]
        finally:
            batcher.close()

    def test_group_larger_than_batch_splits_in_order(self):
        runner = _GatedRunner()
        batcher = MicroBatcher(runner, max_batch_size=4, queue_depth=16)
        try:
            futures = batcher.submit_many(list(range(10)))
            assert [f.result(timeout=5.0) for f in futures] == [
                ("ok", i) for i in range(10)
            ]
            assert runner.batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        finally:
            batcher.close()

    def test_group_that_does_not_fit_is_shed_whole(self):
        runner = _GatedRunner(calls_to_block=1)
        batcher = MicroBatcher(runner, max_batch_size=8, queue_depth=4)
        try:
            (head,) = batcher.submit_many(["head"])
            assert runner.entered.wait(timeout=5.0)
            queued = batcher.submit_many(["a", "b"])
            with pytest.raises(QueueFullError) as excinfo:
                batcher.submit_many(["x", "y", "z"])  # 2 + 3 > 4
            assert excinfo.value.status == 429
            stats = batcher.stats
            assert stats["queue_depth"] == 2  # nothing of the group queued
            assert stats["shed"] == 3
            assert stats["requests"] == 3
            runner.release.set()
            head.result(timeout=5.0)
            for f in queued:
                f.result(timeout=5.0)
            assert runner.batches == [["head"], ["a", "b"]]
            # A group that fits is still admitted afterwards.
            assert [f.result(timeout=5.0)
                    for f in batcher.submit_many(["c", "d"])] == [
                ("ok", "c"), ("ok", "d"),
            ]
        finally:
            batcher.close()

    def test_submit_many_after_close_raises_service_closed(self):
        batcher = MicroBatcher(lambda p: list(p))
        batcher.close()
        with pytest.raises(ServiceClosed):
            batcher.submit_many([1, 2])
        assert batcher.stats["requests"] == 0

    def test_concurrent_groups_are_never_interleaved(self):
        """Stress: 8 threads submitting groups under a tiny switch interval.

        A group is queued atomically, so in the worker's stream of
        payloads every group's members appear back to back and in order.
        """
        runner = _GatedRunner()
        batcher = MicroBatcher(runner, max_batch_size=5, queue_depth=4096)
        errors = []

        def client(thread):
            try:
                for group in range(20):
                    size = 1 + (thread + group) % 7
                    payloads = [(thread, group, i) for i in range(size)]
                    futures = batcher.submit_many(payloads)
                    got = [f.result(timeout=10.0) for f in futures]
                    assert got == [("ok", p) for p in payloads]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert not errors, errors[0]
        stream = [p for batch in runner.batches for p in batch]
        total = sum(1 + (t + g) % 7 for t in range(8) for g in range(20))
        assert len(stream) == total == batcher.stats["requests"]
        for index, (thread, group, i) in enumerate(stream):
            if i > 0:
                assert stream[index - 1] == (thread, group, i - 1)
