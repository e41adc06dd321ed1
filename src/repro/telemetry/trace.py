"""Cross-process distributed tracing: context codec and collector.

:mod:`repro.telemetry.core` gives every emitted span a ``trace_id`` /
``span_id`` / ``parent_id``.  This module supplies the two pieces that
turn those records, whichever process emitted them, into one
causally-ordered trace:

* **Header codec** — :func:`format_trace_header` /
  :func:`parse_trace_header` serialise a
  :class:`~repro.telemetry.core.TraceContext` for the ``X-Repro-Trace``
  HTTP header (and anywhere else a string context is convenient).
* **Collector** — :class:`TraceCollector` reads the run record (grid
  workers return their records to the parent, which writes them there),
  groups spans by ``trace_id``, orders them causally (parent links, ties
  broken by wall-clock start) and renders each trace as an indented tree
  with a cross-process waterfall (``repro report RUN --trace``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .core import TraceContext
from .sinks import load_records

__all__ = [
    "TRACE_HEADER",
    "format_trace_header",
    "parse_trace_header",
    "TraceCollector",
    "render_trace",
]

#: The HTTP header carrying a trace context across the serving boundary.
TRACE_HEADER = "X-Repro-Trace"


# ----------------------------------------------------------------------
# Header codec.
# ----------------------------------------------------------------------

def format_trace_header(ctx: TraceContext) -> str:
    """``TraceContext -> "trace_id-span_id"`` (both 16-hex-char ids)."""
    return f"{ctx.trace_id}-{ctx.span_id}"


def parse_trace_header(value: Optional[str]) -> Optional[TraceContext]:
    """Parse an ``X-Repro-Trace`` value; malformed headers yield ``None``.

    Tolerance over strictness: a client sending garbage gets an untraced
    (but served) request, never a 500.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 2:
        return None
    trace_id, span_id = parts
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    if not trace_id or not span_id:
        return None
    return TraceContext(trace_id, span_id)


# ----------------------------------------------------------------------
# Collector: group, order, render.
# ----------------------------------------------------------------------

class TraceCollector:
    """Merge span records from many processes into per-trace trees.

    Feed it record lists (:meth:`add`) or a run record (:meth:`from_run`).
    Only span records carrying a ``trace_id`` participate — legacy
    records and metrics/event records are ignored.
    """

    def __init__(self, records: Sequence[dict] = ()) -> None:
        self.spans: List[dict] = []
        if records:
            self.add(records)

    # -- ingestion -----------------------------------------------------
    def add(self, records: Sequence[dict]) -> "TraceCollector":
        """Fold span records (dicts with a ``trace_id``) into the pool."""
        for record in records:
            if record.get("type") == "span" and record.get("trace_id"):
                self.spans.append(record)
        return self

    @classmethod
    def from_run(cls, path: str) -> "TraceCollector":
        """Collector over one JSONL run record."""
        return cls(load_records(path))

    # -- grouping ------------------------------------------------------
    def traces(self) -> Dict[str, List[dict]]:
        """Spans grouped by ``trace_id``; groups and members time-ordered."""
        groups: Dict[str, List[dict]] = {}
        for span in sorted(self.spans, key=lambda r: r.get("ts", 0.0)):
            groups.setdefault(span["trace_id"], []).append(span)
        return groups

    def trace_ids(self) -> List[str]:
        """Trace ids ordered by each trace's first span start."""
        return list(self.traces())

    # -- rendering -----------------------------------------------------
    @staticmethod
    def _attr_text(attrs: dict, limit: int = 3) -> str:
        parts = []
        for key in sorted(attrs)[:limit]:
            value = attrs[key]
            if isinstance(value, float):
                value = f"{value:.4g}"
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def render_one(self, trace_id: str, width: int = 28) -> str:
        """One trace as an indented tree with a cross-process waterfall."""
        spans = self.traces().get(trace_id)
        if not spans:
            return f"trace {trace_id}: no spans"
        by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
        children: Dict[Optional[str], List[dict]] = {}
        roots: List[dict] = []
        for span in spans:
            parent = span.get("parent_id")
            if parent and parent in by_id:
                children.setdefault(parent, []).append(span)
            else:
                # Parent unknown here (an un-emitted ancestor or a remote
                # client): surface the span at the top level.
                roots.append(span)
        t0 = min(s.get("ts", 0.0) for s in spans)
        t1 = max(s.get("ts", 0.0) + s.get("duration", 0.0) for s in spans)
        total = max(t1 - t0, 1e-9)
        processes = {s.get("pid") for s in spans}

        rows: List[tuple] = []

        def visit(span: dict, depth: int) -> None:
            label = "  " * depth + str(span.get("name", "?"))
            attrs = self._attr_text(span.get("attrs", {}))
            if attrs:
                label = f"{label} [{attrs}]"
            where = f"{span.get('pid', '?')}/{span.get('thread', '?')}"
            start_ms = (span.get("ts", 0.0) - t0) * 1000.0
            dur_ms = span.get("duration", 0.0) * 1000.0
            offset = int((span.get("ts", 0.0) - t0) / total * width)
            length = max(
                int(round(span.get("duration", 0.0) / total * width)), 1
            )
            offset = min(offset, width - 1)
            length = min(length, width - offset)
            bar = " " * offset + "#" * length
            bar = bar.ljust(width)
            rows.append(
                (label, where, f"{start_ms:+.1f}ms", f"{dur_ms:.1f}ms", bar)
            )
            for child in children.get(span.get("span_id"), ()):
                visit(child, depth + 1)

        for root in roots:
            visit(root, 0)
        widths = [
            max(len(row[col]) for row in rows) for col in range(4)
        ]
        lines = [
            f"trace {trace_id}  ({len(spans)} span(s), "
            f"{len(processes)} process(es), {total * 1000.0:.1f} ms)"
        ]
        for label, where, start, dur, bar in rows:
            lines.append(
                f"  {label.ljust(widths[0])}  {where.ljust(widths[1])}  "
                f"{start.rjust(widths[2])}  {dur.rjust(widths[3])}  |{bar}|"
            )
        return "\n".join(lines)

    def render(
        self, trace_id: Optional[str] = None, width: int = 28
    ) -> str:
        """Render one trace (id or unique prefix) or every trace."""
        ids = self.trace_ids()
        if not ids:
            return "no traced spans (record the run with --telemetry)"
        if trace_id:
            matches = [t for t in ids if t.startswith(trace_id)]
            if not matches:
                return f"no trace matching {trace_id!r} (have: {ids})"
            ids = matches
        return "\n\n".join(self.render_one(t, width=width) for t in ids)


def render_trace(source, trace_id: Optional[str] = None) -> str:
    """Convenience: run-record path (or record list) -> rendered traces."""
    if isinstance(source, (str, bytes)):
        collector = TraceCollector.from_run(source)
    else:
        collector = TraceCollector(source)
    return collector.render(trace_id)
