"""Core telemetry primitives: stopwatches, spans, metrics, events.

This module is deliberately **zero-dependency** (standard library only) and
imports nothing from the rest of :mod:`repro`, so every layer of the stack —
autograd kernels, the attack engine, trainers, the CLI — can instrument
itself without import cycles.

Design
------
* **Spans** (:func:`span`) are hierarchical wall-clock regions kept on a
  thread-local stack.  A finished span folds its duration into its parent's
  per-path aggregation (``"forward"``, ``"forward/attack"``, ...), so a
  single top-level span record carries the whole phase breakdown of the
  region it covers.  Root spans (and spans created with ``emit=True``) are
  dispatched to the attached sinks as ``{"type": "span", ...}`` records.
* **Metrics** (:func:`counter`, :func:`gauge`, :func:`observe`) accumulate
  into a process-wide :class:`MetricsRegistry`; :func:`capture` emits a
  ``{"type": "metrics", ...}`` snapshot record when the run ends.
* **Events** (:func:`event`) are rare, discrete happenings (the proposed
  method dropping its carried iterates).  They are dispatched to sinks even
  when telemetry is disabled — with no sinks attached they cost a single
  truthiness check.

Disabled mode
-------------
Telemetry is **off by default** (enable per-thread with :func:`set_enabled`
/ :func:`capture`, or process-wide with ``REPRO_TELEMETRY=1``).  While
disabled, :func:`span` returns a shared no-op singleton and the metric
functions return immediately, so instrumented hot loops pay only a function
call and an attribute check per site — the overhead gate in
``benchmarks/bench_telemetry.py`` keeps this under 2% of an epochwise-adv
training epoch.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import threading
import time
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Stopwatch",
    "Span",
    "span",
    "current_span",
    "enabled",
    "set_enabled",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "observe",
    "get_metrics",
    "reset_metrics",
    "event",
    "add_sink",
    "remove_sink",
    "capture",
]


# ----------------------------------------------------------------------
# Stopwatch: the timing primitive spans and Trainer.fit's epoch timing share.
# ----------------------------------------------------------------------

class Stopwatch:
    """Reusable ``perf_counter`` stopwatch with segment accumulation.

    ``elapsed`` holds the duration of the most recent completed segment;
    ``total`` accumulates every completed segment.  Usable as a context
    manager; exiting a stopwatch that is not running raises, exactly like
    calling :meth:`stop` before :meth:`start` (unless an exception is
    already propagating, which is never masked).
    """

    __slots__ = ("_start", "elapsed", "total")

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0
        self.total: float = 0.0

    @property
    def running(self) -> bool:
        """Whether a segment is currently being timed."""
        return self._start is not None

    def start(self) -> None:
        """Start (or restart) the stopwatch."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop, accumulate into ``total``, and return the segment seconds."""
        if self._start is None:
            raise RuntimeError(
                f"{type(self).__name__}.stop() called before start()"
            )
        self.elapsed = time.perf_counter() - self._start
        self.total += self.elapsed
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulated total and last-segment reading."""
        self._start = None
        self.elapsed = 0.0
        self.total = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is None and exc_type is not None:
            return  # unbalanced, but never mask the in-flight exception
        self.stop()


# ----------------------------------------------------------------------
# Thread-local state: enabled flag + span stack.
# ----------------------------------------------------------------------

def _default_enabled() -> bool:
    value = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
    return value in ("1", "true", "on", "yes")


class _TelemetryState(threading.local):
    """Per-thread span stack + enabled flag (mirrors the precision stack)."""

    def __init__(self) -> None:
        self.stack: List["Span"] = []
        self.enabled = _default_enabled()


_state = _TelemetryState()

#: thread ident -> name of that thread's innermost active span.  Written by
#: :meth:`Span.__enter__`/`__exit__` (enabled mode only) and read by the
#: sampling profiler, which runs on its own thread and cannot reach the
#: thread-local span stacks.  Plain dict: single-opcode updates under the
#: GIL, and the profiler tolerates a momentarily stale entry.
_active_spans: Dict[int, str] = {}


def enabled() -> bool:
    """Whether spans/metrics are being recorded on this thread."""
    return _state.enabled


def set_enabled(value: bool) -> bool:
    """Enable/disable telemetry for this thread; returns the previous flag."""
    previous = _state.enabled
    _state.enabled = bool(value)
    return previous


def current_span() -> Optional["Span"]:
    """The innermost active span on this thread, or ``None``."""
    stack = _state.stack
    return stack[-1] if stack else None


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------

class Span:
    """One timed region; aggregates descendant durations by path.

    ``children`` maps a slash-joined descendant path (relative to this
    span) to ``[count, total_seconds]``; direct children are the paths
    without a ``"/"``.  ``self_seconds`` is the time not attributed to any
    direct child.
    """

    __slots__ = (
        "name", "attrs", "emit", "children", "duration", "wall_start", "_watch",
    )

    def __init__(
        self, name: str, emit: Optional[bool] = None, attrs: Optional[dict] = None
    ) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.emit = emit
        self.children: Dict[str, List[float]] = {}
        self.duration: float = 0.0
        self.wall_start: float = 0.0
        self._watch = Stopwatch()

    def note(self, **attrs) -> "Span":
        """Attach result attributes (loss, accuracy, ...) to the record."""
        self.attrs.update(attrs)
        return self

    def _fold(self, path: str, count: float, total: float) -> None:
        entry = self.children.get(path)
        if entry is None:
            self.children[path] = [count, total]
        else:
            entry[0] += count
            entry[1] += total

    @property
    def self_seconds(self) -> float:
        """Duration minus the total of all direct children."""
        return self.duration - sum(
            total for path, (_n, total) in self.children.items()
            if "/" not in path
        )

    def __enter__(self) -> "Span":
        self.wall_start = time.time()
        _state.stack.append(self)
        _active_spans[threading.get_ident()] = self.name
        self._watch.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = self._watch.stop() if self._watch.running else 0.0
        stack = _state.stack
        if stack and stack[-1] is self:
            stack.pop()
        parent = stack[-1] if stack else None
        ident = threading.get_ident()
        if parent is not None:
            parent._fold(self.name, 1, self.duration)
            for path, (count, total) in self.children.items():
                parent._fold(f"{self.name}/{path}", count, total)
            _active_spans[ident] = parent.name
        else:
            _active_spans.pop(ident, None)
        should_emit = self.emit if self.emit is not None else parent is None
        if should_emit and _sinks:
            _dispatch(self.to_record())

    def to_record(self) -> dict:
        """The JSONL-serialisable form of this (finished) span."""
        return {
            "type": "span",
            "name": self.name,
            "ts": self.wall_start,
            "duration": self.duration,
            "self": self.self_seconds,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "children": {
                path: {"count": count, "total": total}
                for path, (count, total) in self.children.items()
            },
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared no-op span handed out while telemetry is disabled."""

    __slots__ = ()

    duration = 0.0
    self_seconds = 0.0
    children: Dict[str, List[float]] = {}
    attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def note(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def span(name: str, emit: Optional[bool] = None, **attrs):
    """Open a timed region (use as a context manager).

    ``emit=None`` (the default) dispatches the finished span to sinks only
    when it has no parent; pass ``emit=True`` to force a record for nested
    spans of interest (trainers do this for per-epoch records) or
    ``emit=False`` to aggregate silently.  Returns a shared no-op object
    while telemetry is disabled.
    """
    if not _state.enabled:
        return NULL_SPAN
    return Span(name, emit=emit, attrs=attrs)


# ----------------------------------------------------------------------
# Metrics: counters, gauges, histograms.
# ----------------------------------------------------------------------

#: Log-spaced bucket upper bounds shared by every histogram: 8 buckets per
#: decade from 1e-7 to 1e7 (covers sub-microsecond spans through multi-day
#: totals).  Values at or below the smallest bound (including zero and
#: negatives) land in the underflow bucket; values above the largest in the
#: overflow bucket.  A class-level constant so per-instance cost is one
#: lazily allocated count list.
_BUCKET_BOUNDS = tuple(10.0 ** (exponent / 8.0) for exponent in range(-56, 57))


class Histogram:
    """Streaming summary of observed values: count/total/min/max/mean.

    Beyond the scalar summary, observations are folded into fixed
    log-spaced buckets (:data:`_BUCKET_BOUNDS`), giving streaming quantile
    estimates (:meth:`quantile`, surfaced as p50/p90/p99) with constant
    memory and one binary search per observation.  Estimates are exact at
    the observed ``min``/``max`` and interpolate linearly inside a bucket,
    so the relative error is bounded by the bucket width (~33%, one eighth
    of a decade) in the worst case and far smaller in practice.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._buckets: Optional[List[int]] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = [0] * (len(_BUCKET_BOUNDS) + 1)
        buckets[bisect.bisect_left(_BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Streaming estimate of the ``q``-quantile (``0 <= q <= 1``).

        Returns 0.0 before any observation.  The estimate walks the
        cumulative bucket counts to the target rank and interpolates
        linearly between the bucket's bounds, clamped to the exact
        observed ``min``/``max``.
        """
        if not self.count:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self._buckets):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= target:
                lower = _BUCKET_BOUNDS[index - 1] if index > 0 else self.min
                upper = (
                    _BUCKET_BOUNDS[index]
                    if index < len(_BUCKET_BOUNDS) else self.max
                )
                fraction = (
                    1.0 - (cumulative - target) / bucket_count
                    if bucket_count else 1.0
                )
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
        return self.max

    def to_dict(self) -> dict:
        """JSON-serialisable summary (with p50/p90/p99 estimates)."""
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Process-wide store for counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def snapshot(self) -> dict:
        """A JSON-serialisable copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in self.histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop every metric (start of a capture scope, tests)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _metrics


def reset_metrics() -> None:
    """Clear the process-wide metrics registry."""
    _metrics.reset()


def counter(name: str, value: float = 1.0) -> None:
    """Increment a counter (no-op while telemetry is disabled)."""
    if _state.enabled:
        _metrics.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Record a gauge's latest value (no-op while disabled)."""
    if _state.enabled:
        _metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Add one histogram observation (no-op while disabled)."""
    if _state.enabled:
        _metrics.observe(name, value)


# ----------------------------------------------------------------------
# Sinks and events.
# ----------------------------------------------------------------------

_sinks: List[object] = []
_sinks_lock = threading.Lock()


def add_sink(sink) -> None:
    """Attach a sink; it receives every span/event/metrics record."""
    with _sinks_lock:
        _sinks.append(sink)


def remove_sink(sink) -> None:
    """Detach a previously attached sink (missing sinks are ignored)."""
    with _sinks_lock:
        try:
            _sinks.remove(sink)
        except ValueError:
            pass


def _dispatch(record: dict) -> None:
    for sink in tuple(_sinks):
        sink.emit(record)


def event(name: str, **fields) -> None:
    """Emit a discrete event record (``epochwise.cache_reset``, ...).

    Events bypass the enabled flag: they are rare, and sinks like the
    verbose trainer's console printer want them even when span/metric
    recording is off.  With no sinks attached this is a single check.
    """
    if not _sinks:
        return
    _dispatch({
        "type": "event",
        "name": name,
        "ts": time.time(),
        "fields": fields,
    })


# ----------------------------------------------------------------------
# Fork safety.
# ----------------------------------------------------------------------

def _reset_after_fork() -> None:
    """Reset telemetry state in a freshly forked child.

    A fork can happen while another thread holds the metrics or sink lock
    — the child would inherit a lock that is never released (the owning
    thread does not exist there), deadlocking its first counter update.
    Both locks are therefore recreated.  The span stack is cleared (spans
    opened in the parent will be exited there, not here), sinks are
    detached (a child writing to the parent's JSONL file would interleave
    records mid-line) and the metrics registry starts empty so worker
    processes report their own deltas.  The enabled flag is configuration
    and is inherited unchanged.
    """
    global _sinks_lock
    _state.stack = []
    _active_spans.clear()
    _sinks_lock = threading.Lock()
    del _sinks[:]
    _metrics._lock = threading.Lock()
    _metrics.reset()


os.register_at_fork(after_in_child=_reset_after_fork)


# ----------------------------------------------------------------------
# Capture scope: enable + attach sinks + emit the run's metric snapshot.
# ----------------------------------------------------------------------

@contextlib.contextmanager
def capture(
    jsonl: Optional[str] = None,
    sink=None,
    reset: bool = True,
) -> Iterator[List[object]]:
    """Record one run: enable telemetry and attach sinks for the scope.

    Parameters
    ----------
    jsonl:
        Optional path; attaches a :class:`~repro.telemetry.sinks.JsonlSink`
        writing every record as one JSON line.
    sink:
        Optional extra sink object (e.g. an in-memory sink in tests).
    reset:
        Clear the metrics registry on entry so the end-of-run snapshot
        describes exactly this scope.

    On exit a ``{"type": "metrics", ...}`` snapshot record is dispatched,
    sinks opened here are closed, and the enabled flag is restored.
    Yields the list of sinks attached by this scope.
    """
    from .sinks import JsonlSink  # local: keeps core free-standing

    attached = []
    if jsonl is not None:
        attached.append(JsonlSink(jsonl))
    if sink is not None:
        attached.append(sink)
    if reset:
        _metrics.reset()
    previous = set_enabled(True)
    for item in attached:
        add_sink(item)
    try:
        yield attached
    finally:
        snapshot = _metrics.snapshot()
        _dispatch({"type": "metrics", "ts": time.time(), **snapshot})
        set_enabled(previous)
        for item in attached:
            remove_sink(item)
            close = getattr(item, "close", None)
            if close is not None:
                close()
