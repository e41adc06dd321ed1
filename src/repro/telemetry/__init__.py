"""Observability layer: timed spans, metrics, events, sinks, reports.

Zero-dependency instrumentation shared by every layer of the stack::

    from repro import telemetry as tel

    with tel.capture(jsonl="run.jsonl"):
        with tel.span("epoch", emit=True, trainer="proposed", epoch=0):
            with tel.span("forward"):
                ...
        tel.counter("attack.loop.iterations", 10)
        tel.gauge("workspace.pool.bytes", 1 << 20)

Spans keep a thread-local stack and fold their durations into their
parents, so one per-epoch record carries the whole phase breakdown.
Counters/gauges/histograms accumulate in a process-wide registry that is
snapshotted into the run record when a :func:`capture` scope closes.
Records flow to pluggable sinks (in-memory, JSONL, console events);
``repro report run.jsonl`` renders a captured run into the Table-I-style
per-epoch/per-phase timing table.

Telemetry is **disabled by default** (the instrumented hot paths cost only
a guarded no-op call); enable it with :func:`capture`, :func:`set_enabled`
or ``REPRO_TELEMETRY=1``.
"""

from .core import (
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    Span,
    Stopwatch,
    add_sink,
    capture,
    counter,
    current_span,
    enabled,
    event,
    gauge,
    get_metrics,
    observe,
    remove_sink,
    reset_metrics,
    set_enabled,
    span,
)
from .report import RunReport, build_report, render_report
from .sinks import (
    ConsoleEvents,
    InMemorySink,
    JsonlSink,
    Sink,
    load_records,
)
from .bench import (
    BenchRecord,
    diff_records,
    load_bench_dir,
    render_diff,
)
from .profiler import DEFAULT_HZ, SamplingProfiler

__all__ = [
    "Stopwatch",
    "Span",
    "NULL_SPAN",
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
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "ConsoleEvents",
    "load_records",
    "RunReport",
    "build_report",
    "render_report",
    "SamplingProfiler",
    "DEFAULT_HZ",
    "BenchRecord",
    "load_bench_dir",
    "diff_records",
    "render_diff",
]
