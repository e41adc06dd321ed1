"""Pluggable telemetry sinks: in-memory, JSONL stream, console events.

A sink is any object with ``emit(record: dict)`` (and optionally
``close()``).  Records are plain dicts with a ``"type"`` key:

* ``"span"``    — a finished traced region with its child-path breakdown;
* ``"event"``   — a discrete happening (``epochwise.cache_reset``, ...);
* ``"metrics"`` — the end-of-run counter/gauge/histogram snapshot.
"""

from __future__ import annotations

import json
import sys
import threading
from typing import List, Optional, Sequence

__all__ = ["Sink", "InMemorySink", "JsonlSink", "ConsoleEvents"]


class Sink:
    """Interface for telemetry consumers."""

    def emit(self, record: dict) -> None:
        """Receive one record."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (optional)."""


class InMemorySink(Sink):
    """Keep every record in a list — the in-process registry of a run."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()

    def spans(self, name: Optional[str] = None) -> List[dict]:
        """Span records, optionally filtered by span name."""
        return [
            r for r in self.records
            if r.get("type") == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> List[dict]:
        """Event records, optionally filtered by event name."""
        return [
            r for r in self.records
            if r.get("type") == "event" and (name is None or r["name"] == name)
        ]

    def metrics(self) -> Optional[dict]:
        """The last metrics snapshot record, or ``None``."""
        for record in reversed(self.records):
            if record.get("type") == "metrics":
                return record
        return None


class JsonlSink(Sink):
    """Append each record as one JSON line to a file (the run record).

    Accepts a path (opened/owned by the sink) or an existing text stream
    (flushed but not closed).  Every record is flushed as it is written:
    a crashed (or SIGKILLed) process loses at most the line it was
    mid-write on — which :func:`load_records` tolerates — never the spans
    that completed before the crash.
    """

    def __init__(self, target) -> None:
        if isinstance(target, (str, bytes)):
            self._stream = open(target, "w")
            self._owns = True
        else:
            self._stream = target
            self._owns = False
        # Spans can be emitted from several threads of one process (the
        # prefetch producer, serving handler threads); serialise writes so
        # lines never interleave.
        self._lock = threading.Lock()

    @property
    def path(self) -> Optional[str]:
        """The file backing this sink, or ``None`` for borrowed streams."""
        return getattr(self._stream, "name", None) if self._owns else None

    def emit(self, record: dict) -> None:
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            self._stream.write(line)
            self._stream.flush()

    def close(self) -> None:
        self._stream.flush()
        if self._owns:
            self._stream.close()


class ConsoleEvents(Sink):
    """Print selected event records as human-readable console lines.

    Trainers attach this during verbose fits so rare events (the proposed
    method's cache resets) surface in the progress log.
    """

    def __init__(
        self,
        names: Optional[Sequence[str]] = None,
        stream=None,
        prefix: str = "[telemetry]",
    ) -> None:
        self.names = tuple(names) if names is not None else None
        self.stream = stream
        self.prefix = prefix

    def emit(self, record: dict) -> None:
        if record.get("type") != "event":
            return
        if self.names is not None and record["name"] not in self.names:
            return
        fields = " ".join(
            f"{key}={value}" for key, value in record.get("fields", {}).items()
        )
        line = f"{self.prefix} {record['name']}"
        if fields:
            line = f"{line} {fields}"
        print(line, file=self.stream if self.stream is not None else sys.stdout)


def load_records(path: str) -> List[dict]:
    """Read a JSONL run record back into a list of record dicts.

    A truncated *final* line — the signature of a process killed mid-write
    — is skipped rather than raised, so the run record of a crashed run is
    still readable up to its last complete record.  Corruption anywhere else in
    the file still raises: that is not a crash artefact.
    """
    records = []
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    while lines and not lines[-1]:
        lines.pop()
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break
            raise
    return records
