"""Micro-batching request queue with admission control and backpressure.

The serving hot path is dominated by per-call dispatch: a single-example
forward pass through the CNN costs almost as much engine overhead as a
32-example one, so coalescing concurrent requests into one batched
forward amortises that overhead across the batch (Kurakin et al.'s
batched-execution lever, applied to inference).  :class:`MicroBatcher`
is work-conserving:

* every request enters through :meth:`MicroBatcher.submit_many`, which
  queues a group of examples back to back — a single example is a group
  of one;
* the single worker thread sleeps until something is queued, then takes
  everything queued, up to ``max_batch_size`` examples, as one batch —
  under load the queue refills while a forward pass runs, so requests
  coalesce without any timer;
* the whole batch runs through one ``run_batch`` call on the worker
  thread, and each example's :class:`~concurrent.futures.Future` is
  resolved with its result.

Overload degrades gracefully instead of collapsing:

* the queue is **bounded** (``queue_depth``); a group that does not fit
  is shed whole with :class:`QueueFullError` (HTTP 429) before any of it
  is queued, rather than piling up latency for everyone;
* callers wait with a deadline — :meth:`MicroBatcher.gather` waits on a
  group's futures under one deadline and maps a miss to
  :class:`RequestTimeout` (HTTP 504), counting it once in ``timeouts``
  and ``serving.classify.timeouts``;
* :meth:`MicroBatcher.close` stops admissions (:class:`ServiceClosed`,
  HTTP 503) but drains every already-admitted request before the worker
  exits, so in-flight work completes on graceful shutdown.

Metrics are recorded straight into the process-wide registry (bypassing
the thread-local enabled flag) so the ``metrics`` endpoint is always live:
``serving.classify.*`` counters, queue-depth gauge, and batch-size /
batch-latency histograms with streaming p50/p90/p99.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from typing import Callable, List, Optional, Sequence

from .. import telemetry as tel

__all__ = [
    "ServingError",
    "QueueFullError",
    "RequestTimeout",
    "ServiceClosed",
    "MicroBatcher",
]

#: Label in the batcher's metric names (``serving.classify.*``), error
#: messages and worker thread name.
NAME = "classify"


class ServingError(RuntimeError):
    """Base class for serving-layer request failures.

    ``code`` is the documented machine-readable error string clients can
    dispatch on; ``status`` is the matching HTTP status code.
    """

    code = "error"
    status = 500


class QueueFullError(ServingError):
    """The bounded request queue is full; the request was shed."""

    code = "overloaded"
    status = 429


class RequestTimeout(ServingError):
    """The request missed its deadline while queued or executing."""

    code = "timeout"
    status = 504


class ServiceClosed(ServingError):
    """The service is shutting down and no longer admits requests."""

    code = "shutting_down"
    status = 503


class MicroBatcher:
    """Coalesce queued requests into batched ``run_batch`` calls.

    Parameters
    ----------
    run_batch:
        ``callable(payloads) -> results`` executed on the worker thread;
        must return one result per payload, in order.
    max_batch_size:
        Upper bound on coalesced batch size (1 disables coalescing — the
        single-request-at-a-time baseline the throughput gate compares
        against).
    queue_depth:
        Bound on admitted-but-unprocessed requests; beyond it submissions
        fail fast with :class:`QueueFullError`.
    """

    def __init__(
        self,
        run_batch: Callable[[Sequence[object]], Sequence[object]],
        *,
        max_batch_size: int = 32,
        queue_depth: int = 256,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be at least 1, got {max_batch_size}"
            )
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be at least 1, got {queue_depth}"
            )
        self._run_batch = run_batch
        self.max_batch_size = int(max_batch_size)
        self.queue_depth = int(queue_depth)
        # (payload, future) pairs.  Admission, the worker's takes and
        # close() all hold ``_cond``, so a group is queued atomically and
        # nothing is admitted after close().
        self._pending: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._metrics = tel.get_metrics()
        self._batches = 0
        self._requests = 0
        self._shed = 0
        self._timeouts = 0
        self._worker = threading.Thread(
            target=self._loop, name=f"repro-serve-{NAME}", daemon=True
        )
        self._worker.start()

    # -- submission ------------------------------------------------------
    def submit_many(self, payloads: Sequence[object]) -> List[Future]:
        """Admit a group of requests at once; one future per payload.

        All-or-nothing against ``queue_depth``: either every payload is
        queued back to back, in order — so the worker never starts a
        batch partway through the group — or none is, and the group is
        shed with :class:`QueueFullError` before any of its work is
        queued.  A group larger than ``queue_depth`` can never be
        admitted.  Raises :class:`ServiceClosed` after :meth:`close`.
        """
        futures = [Future() for _ in payloads]
        with self._cond:
            if self._closed:
                raise ServiceClosed(f"{NAME}: batcher is shut down")
            depth = len(self._pending) + len(futures)
            admitted = depth <= self.queue_depth
            if admitted:
                self._pending.extend(zip(payloads, futures))
                self._requests += len(futures)
                self._cond.notify()
            else:
                self._shed += len(futures)
        if not admitted:
            self._metrics.inc(f"serving.{NAME}.shed", len(futures))
            raise QueueFullError(
                f"{NAME}: request queue is full "
                f"(depth {self.queue_depth}); {len(futures)} request(s) shed"
            )
        self._metrics.set_gauge(f"serving.{NAME}.queue_depth", depth)
        return futures

    def gather(
        self, futures: Sequence[Future], timeout: Optional[float] = None
    ) -> List:
        """Results of a group's futures, in order, under one deadline.

        A missed deadline raises :class:`RequestTimeout` and counts once,
        however many of the group's results are late.  The requests are
        *not* recalled from the queue — their batches still execute — so
        a timeout bounds the caller's wait, not the server's work.
        """
        _done, late = wait_futures(futures, timeout)
        if late:
            with self._cond:
                self._timeouts += 1
            self._metrics.inc(f"serving.{NAME}.timeouts")
            raise RequestTimeout(
                f"{NAME}: {len(late)} of {len(futures)} result(s) missed "
                f"the {timeout:.3f}s deadline"
            )
        return [future.result() for future in futures]

    # -- worker ----------------------------------------------------------
    def _next_batch(self) -> List:
        """Block for the next batch; empty once closed and drained."""
        batch: List = []
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            while self._pending and len(batch) < self.max_batch_size:
                batch.append(self._pending.popleft())
        return batch

    def _execute(self, batch) -> None:
        started = time.perf_counter()
        payloads = [payload for payload, _future in batch]
        try:
            results = self._run_batch(payloads)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"{NAME}: run_batch returned {len(results)} "
                    f"results for {len(batch)} payloads"
                )
        except BaseException as exc:  # noqa: BLE001 - routed to callers
            self._metrics.inc(f"serving.{NAME}.batch_errors")
            for _payload, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_payload, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._batches += 1
        self._metrics.inc(f"serving.{NAME}.batches")
        self._metrics.observe(f"serving.{NAME}.batch_size", len(batch))
        self._metrics.observe(
            f"serving.{NAME}.batch_latency_ms", elapsed_ms
        )

    def _loop(self) -> None:
        while True:
            batch = self._next_batch()
            if not batch:
                return
            self._execute(batch)

    # -- lifecycle -------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop admissions, drain, join the worker.

        Every request admitted before the call completes normally; later
        submissions raise :class:`ServiceClosed`.  Idempotent.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._worker.join(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> dict:
        """Admission/batch counters for diagnostics and ``metrics``."""
        return {
            "requests": self._requests,
            "batches": self._batches,
            "shed": self._shed,
            "timeouts": self._timeouts,
            "queue_depth": len(self._pending),
            "max_batch_size": self.max_batch_size,
            "closed": self.closed,
        }
