"""Persistent forked worker pool with pipe control and crash detection.

:class:`WorkerPool` forks ``num_workers`` long-lived child processes, each
running a message loop around a ``handler(worker_id, message)`` callable.
Because the start method is **fork**, the handler and everything it closes
over (a classifier pool, datasets) is inherited by the child directly —
nothing is pickled except the small messages that travel over each
worker's pipe.  The fork hooks registered by :mod:`repro.runtime.workspace`
and :mod:`repro.telemetry` give every child a fresh buffer pool and clean
telemetry locks.

Crash detection
---------------
A worker that dies (killed, segfaulted, ``os._exit``) is detected by the
parent while waiting for its reply: :meth:`recv` raises
:class:`WorkerCrash` and the caller decides what to do.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from typing import Any, Callable, List, Optional

from .. import telemetry as tel
from ..telemetry import trace as teltrace

__all__ = ["WorkerCrash", "WorkerError", "WorkerPool", "resolve_workers"]

_FORK = multiprocessing.get_context("fork")
_STOP = "__stop__"
_TRACED = "__traced__"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_WORKERS``, else 1.

    ``None``/``0`` defer to the environment; anything below 1 after
    resolution raises.
    """
    if workers in (None, 0):
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(raw) if raw else 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class WorkerCrash(RuntimeError):
    """A worker process died before replying."""

    def __init__(self, worker_id: int, detail: str = "") -> None:
        self.worker_id = worker_id
        note = f" ({detail})" if detail else ""
        super().__init__(f"worker {worker_id} died{note}")


class WorkerError(RuntimeError):
    """A worker's handler raised; carries the remote traceback."""

    def __init__(self, worker_id: int, remote_traceback: str) -> None:
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker {worker_id} raised:\n{remote_traceback}"
        )


def _worker_main(handler: Callable[[int, Any], Any], worker_id: int, conn):
    """Child-process message loop: recv → handle → reply, until stopped."""
    # Fork hooks already gave this process an empty workspace pool, a clean
    # span stack and fresh telemetry locks; the loop below only has to
    # serve messages.
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message == _STOP:
            break
        # Traced envelope from WorkerPool.send: adopt the parent's trace
        # context when there is one (so spans this handler emits join the
        # parent's trace) and make sure this process has a spool file to
        # emit them into.
        ctx = None
        if (
            isinstance(message, tuple)
            and len(message) == 4
            and message[0] == _TRACED
        ):
            _, raw_ctx, spool, message = message
            if raw_ctx is not None:
                ctx = tel.TraceContext(*raw_ctx)
            if spool is not None:
                teltrace.ensure_spool(spool)
        try:
            with tel.trace_context(ctx):
                reply = handler(worker_id, message)
        except Exception:
            conn.send(("error", traceback.format_exc()))
        else:
            conn.send(("ok", reply))
    conn.close()


class _Worker:
    __slots__ = ("id", "process", "conn")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn


class WorkerPool:
    """``num_workers`` persistent fork workers driven over per-worker pipes.

    Parameters
    ----------
    num_workers:
        Number of child processes.
    handler:
        ``handler(worker_id, message) -> reply``, executed in the child.
        Inherited through fork — closures over parent state are fine.
    name:
        Process-name prefix (diagnostics).
    """

    def __init__(
        self,
        num_workers: int,
        handler: Callable[[int, Any], Any],
        name: str = "repro-worker",
    ) -> None:
        if num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self.num_workers = int(num_workers)
        self.handler = handler
        self.name = name
        self._workers: List[Optional[_Worker]] = [None] * self.num_workers
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> _Worker:
        parent_conn, child_conn = _FORK.Pipe()
        process = _FORK.Process(
            target=_worker_main,
            args=(self.handler, worker_id, child_conn),
            name=f"{self.name}-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(worker_id, process, parent_conn)

    def start(self) -> "WorkerPool":
        """Fork the workers (idempotent)."""
        if not self._started:
            for worker_id in range(self.num_workers):
                self._workers[worker_id] = self._spawn(worker_id)
            self._started = True
        return self

    def kill(self, worker_id: int) -> None:
        """SIGKILL a worker (crash-detection tests)."""
        worker = self._workers[worker_id]
        if worker is not None and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=5)

    def shutdown(self) -> None:
        """Stop every worker and reap the processes (idempotent)."""
        if not self._started:
            return
        for worker in self._workers:
            if worker is None:
                continue
            try:
                if worker.process.is_alive():
                    worker.conn.send(_STOP)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            if worker is None:
                continue
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            worker.conn.close()
        self._workers = [None] * self.num_workers
        self._started = False

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, worker_id: int, message: Any) -> None:
        """Dispatch one message to a worker (non-blocking).

        When telemetry is enabled the message travels in a
        ``(_TRACED, ctx, spool, payload)`` envelope.  The capture's spool
        directory always rides along, so the worker knows where to emit
        its spans.  ``ctx`` is the caller's trace context, or ``None``
        outside any traced span; when set, the worker adopts it for the
        duration of the handler call, so every span it emits carries the
        parent's ``trace_id`` and parents onto the dispatching span.
        """
        if tel.enabled():
            ctx = tel.current_context()
            message = (
                _TRACED,
                None if ctx is None else tuple(ctx),
                teltrace.spool_dir(),
                message,
            )
        worker = self._workers[worker_id]
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrash(worker_id, str(exc)) from exc

    def recv(self, worker_id: int, timeout: Optional[float] = None) -> Any:
        """Await one reply; raises :class:`WorkerCrash` if the worker died.

        Liveness is polled alongside the pipe so a SIGKILLed worker is
        detected promptly even when other processes still hold duplicated
        pipe ends (which would defeat EOF-based detection).
        """
        worker = self._workers[worker_id]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    reply = worker.conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise WorkerCrash(worker_id, str(exc)) from exc
            if not worker.process.is_alive():
                # Drain any reply flushed just before death.
                try:
                    if worker.conn.poll(0):
                        reply = worker.conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise WorkerCrash(
                    worker_id, f"exitcode={worker.process.exitcode}"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"worker {worker_id} did not reply within {timeout}s"
                )
        status, payload = reply
        if status == "error":
            raise WorkerError(worker_id, payload)
        return payload
