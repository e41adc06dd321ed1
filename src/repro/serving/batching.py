"""Micro-batching request queue with admission control and backpressure.

The serving hot path is dominated by per-call dispatch: a single-example
forward pass through the CNN costs almost as much engine overhead as a
32-example one, so coalescing concurrent single-example requests into one
batched forward amortises that overhead across the batch (Kurakin et al.'s
batched-execution lever, applied to inference).  :class:`MicroBatcher`
is work-conserving by default:

* the single worker thread sleeps until something is queued, then takes
  everything queued, up to ``max_batch_size`` requests, as one batch —
  under load the queue refills while a forward pass runs, so requests
  coalesce without any waiting;
* ``max_wait_us > 0`` adds a deliberate window: a batch that is still
  short of ``max_batch_size`` waits up to that long, from its first
  take, for more requests;
* the whole batch runs through one ``run_batch`` call on the worker
  thread, and each request's :class:`~concurrent.futures.Future` is
  resolved with its example's result.

Overload degrades gracefully instead of collapsing:

* the queue is **bounded** (``queue_depth``); once full, new submissions
  are shed immediately with :class:`QueueFullError` (HTTP 429) rather
  than piling up latency for everyone.  :meth:`MicroBatcher.submit_many`
  admits a client batch all-or-nothing: its requests are queued back to
  back or the whole group is shed;
* callers wait with a deadline — :meth:`MicroBatcher.run` maps a missed
  deadline to :class:`RequestTimeout` (HTTP 504);
* :meth:`MicroBatcher.close` stops admissions (:class:`ServiceClosed`,
  HTTP 503) but drains every already-admitted request before the worker
  exits, so in-flight work completes on graceful shutdown.

Metrics are recorded straight into the process-wide registry (bypassing
the thread-local enabled flag) so the ``metrics`` endpoint is always live:
``serving.*`` counters, queue-depth gauge, and batch-size / batch-latency
histograms with streaming p50/p90/p99.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, List, Optional, Sequence

from .. import telemetry as tel

__all__ = [
    "ServingError",
    "QueueFullError",
    "RequestTimeout",
    "ServiceClosed",
    "MicroBatcher",
]


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
    """Coalesce single-payload requests into batched ``run_batch`` calls.

    Parameters
    ----------
    run_batch:
        ``callable(payloads) -> results`` executed on the worker thread;
        must return one result per payload, in order.
    max_batch_size:
        Upper bound on coalesced batch size (1 disables coalescing — the
        single-request-at-a-time baseline the throughput gate compares
        against).
    max_wait_us:
        How long a short batch waits for more requests, in microseconds.
        The default 0 is work-conserving: the worker batches whatever is
        queued the moment it becomes free.  A positive window starts at
        the batch's first take, so an idle service never delays a lone
        request by more than the window.
    queue_depth:
        Bound on admitted-but-unprocessed requests; beyond it submissions
        fail fast with :class:`QueueFullError`.
    name:
        Label used in metric names and the worker thread name.
    """

    def __init__(
        self,
        run_batch: Callable[[Sequence[object]], Sequence[object]],
        *,
        max_batch_size: int = 32,
        max_wait_us: int = 0,
        queue_depth: int = 256,
        name: str = "classify",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be at least 1, got {max_batch_size}"
            )
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be at least 1, got {queue_depth}"
            )
        if max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {max_wait_us}")
        self._run_batch = run_batch
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = max_wait_us / 1e6
        self.queue_depth = int(queue_depth)
        self.name = name
        # (payload, future, trace context) triples.  Admission, the
        # worker's takes and close() all hold ``_cond``, so a group is
        # queued atomically and nothing is admitted after close().
        self._pending: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._metrics = tel.get_metrics()
        self._batches = 0
        self._requests = 0
        self._shed = 0
        self._timeouts = 0
        self._worker = threading.Thread(
            target=self._loop, name=f"repro-serve-{name}", daemon=True
        )
        self._worker.start()

    # -- submission ------------------------------------------------------
    def submit(self, payload) -> Future:
        """Admit one request; returns the future carrying its result.

        Raises :class:`ServiceClosed` after :meth:`close` and
        :class:`QueueFullError` when the bounded queue is full.
        """
        return self.submit_many((payload,))[0]

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
        # The submitting thread's trace context rides the queue with the
        # requests, so the batch executing on the worker thread can join
        # the trace of the request(s) it serves.
        ctx = tel.current_context() if tel.enabled() else None
        with self._cond:
            if self._closed:
                raise ServiceClosed(f"{self.name}: batcher is shut down")
            depth = len(self._pending) + len(futures)
            admitted = depth <= self.queue_depth
            if admitted:
                self._pending.extend(
                    (payload, future, ctx)
                    for payload, future in zip(payloads, futures)
                )
                self._requests += len(futures)
                self._cond.notify()
            else:
                self._shed += len(futures)
        if not admitted:
            self._metrics.inc(f"serving.{self.name}.shed", len(futures))
            raise QueueFullError(
                f"{self.name}: request queue is full "
                f"(depth {self.queue_depth}); {len(futures)} request(s) shed"
            )
        self._metrics.set_gauge(f"serving.{self.name}.queue_depth", depth)
        return futures

    def run(self, payload, timeout: Optional[float] = None):
        """Submit and wait for the result with an optional deadline.

        A missed deadline raises :class:`RequestTimeout`.  The request is
        *not* recalled from the queue — its batch still executes — so a
        timeout bounds the caller's wait, not the server's work.
        """
        future = self.submit(payload)
        try:
            return future.result(timeout)
        except FutureTimeout:
            self._timeouts += 1
            self._metrics.inc(f"serving.{self.name}.timeouts")
            raise RequestTimeout(
                f"{self.name}: no result within {timeout:.3f}s"
            ) from None

    # -- worker ----------------------------------------------------------
    def _take(self, batch: List) -> None:
        """Move queued requests into ``batch`` up to ``max_batch_size``."""
        while self._pending and len(batch) < self.max_batch_size:
            batch.append(self._pending.popleft())

    def _next_batch(self) -> List:
        """Block for the next batch; empty once closed and drained."""
        batch: List = []
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            self._take(batch)
            if not batch or self.max_wait_s <= 0:
                return batch
            deadline = time.monotonic() + self.max_wait_s
            # After close() nothing more can arrive, so stop waiting.
            while len(batch) < self.max_batch_size and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
                self._take(batch)
        return batch

    def _run_traced(self, payloads, ctxs):
        """Run the batch, traced when any request carried a context.

        The batch span parents on the *first* traced request; the other
        coalesced requests are recorded as ``links`` (their contexts, in
        header format) since a span has exactly one parent but a batch
        serves many requests.  ``enabled`` is thread-local, so it is
        switched on here just for the batch — the worker thread otherwise
        keeps the process default.
        """
        if not ctxs:
            return self._run_batch(payloads)
        attrs = {"batcher": self.name, "size": len(payloads)}
        if len(ctxs) > 1:
            attrs["links"] = [f"{c.trace_id}-{c.span_id}" for c in ctxs[1:]]
        previous = tel.set_enabled(True)
        try:
            with tel.trace_context(ctxs[0]):
                with tel.span("serving.batch", **attrs):
                    return self._run_batch(payloads)
        finally:
            tel.set_enabled(previous)

    def _execute(self, batch) -> None:
        started = time.perf_counter()
        payloads = [payload for payload, _future, _ctx in batch]
        # A group admitted by one request shares one context: link it once.
        ctxs = list(dict.fromkeys(
            ctx for _payload, _future, ctx in batch if ctx is not None
        ))
        try:
            results = self._run_traced(payloads, ctxs)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"{self.name}: run_batch returned {len(results)} "
                    f"results for {len(batch)} payloads"
                )
        except BaseException as exc:  # noqa: BLE001 - routed to callers
            self._metrics.inc(f"serving.{self.name}.batch_errors")
            for _payload, future, _ctx in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_payload, future, _ctx), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._batches += 1
        self._metrics.inc(f"serving.{self.name}.batches")
        self._metrics.observe(f"serving.{self.name}.batch_size", len(batch))
        self._metrics.observe(
            f"serving.{self.name}.batch_latency_ms", elapsed_ms
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
            "max_wait_us": int(round(self.max_wait_s * 1e6)),
            "closed": self.closed,
        }
