"""Stdlib statistical profiler: sample every thread, collapse the stacks.

A daemon thread wakes ``hz`` times per second, grabs every thread's
current frame via :func:`sys._current_frames` and folds each stack into a
counter keyed by the collapsed frame tuple.  No tracing hooks, no
interpreter slowdown between samples — the cost is the sampling thread's
own work, which the ``benchmarks/bench_telemetry.py`` gate bounds below
5% of an epochwise-adv epoch at the default rate.

Output is the **collapsed-stack** format flamegraph tooling consumes
(``frame;frame;frame count`` per line, outermost frame first).  Each
stack is prefixed with the sampled thread's innermost *telemetry span*
(from the registry :mod:`repro.telemetry.core` maintains for exactly this
purpose), so profiles read as "inside span X, the time went to Y" —
linking wall-clock attribution to the same span names the traces and
reports use.

Usage::

    with SamplingProfiler(hz=29) as prof:
        train(...)
    prof.save("profile.collapsed")     # or print(prof.collapsed())

or, from the CLI, ``repro table1 ... --profile out.collapsed`` (any
artefact subcommand takes the flag).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import core

__all__ = ["SamplingProfiler", "DEFAULT_HZ"]

#: Default sampling rate.  A prime keeps the sampler from phase-locking
#: with periodic work (batch loops), which would bias the attribution.
#: 29 Hz keeps the in-process sampler (every wake contends for the GIL)
#: comfortably under the 5% overhead gate; raise ``hz`` for short runs
#: where resolution matters more than overhead.
DEFAULT_HZ = 29


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


class SamplingProfiler:
    """Sample all threads' stacks from a daemon thread at ``hz``.

    Parameters
    ----------
    hz:
        Samples per second (wall clock).  The default trades resolution
        for overhead; raise it for short runs.
    max_depth:
        Stacks deeper than this keep their innermost ``max_depth`` frames
        (the hot end) — unbounded recursion cannot blow up the key space.
    """

    def __init__(self, hz: int = DEFAULT_HZ, max_depth: int = 64) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = int(hz)
        self.max_depth = int(max_depth)
        self.stacks: Dict[Tuple[str, ...], int] = {}
        self.samples = 0
        # perf_counter seconds spent inside _take_sample: the sampler's
        # own work, as opposed to the wait between ticks.
        self.sample_seconds = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- sampling ------------------------------------------------------
    def _take_sample(self, own_ident: int) -> None:
        # sys._current_frames returns a private snapshot dict; frames may
        # keep running while we walk them, which statistical profiling
        # tolerates (a torn stack is one sample of noise).
        for ident, frame in sys._current_frames().items():
            if ident == own_ident:
                continue
            frames: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                frames.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not frames:
                continue
            frames.reverse()  # outermost first, as collapsed format wants
            span_name = core._active_spans.get(ident)
            if span_name is not None:
                frames.insert(0, f"span:{span_name}")
            key = tuple(frames)
            self.stacks[key] = self.stacks.get(key, 0) + 1
        self.samples += 1

    def _loop(self) -> None:
        own_ident = threading.get_ident()
        interval = 1.0 / self.hz
        next_tick = time.perf_counter()
        while not self._stop.is_set():
            began = time.perf_counter()
            self._take_sample(own_ident)
            self.sample_seconds += time.perf_counter() - began
            next_tick += interval
            delay = next_tick - time.perf_counter()
            if delay <= 0:
                # Sampling fell behind (huge thread count, GIL stall):
                # skip missed ticks instead of bursting to catch up.
                next_tick = time.perf_counter()
                continue
            self._stop.wait(delay)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Start the sampling thread (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
            self._thread = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- output --------------------------------------------------------
    def collapsed(self, min_count: int = 1) -> str:
        """Collapsed-stack text: ``frame;frame;... count`` per line.

        Lines are ordered by descending count then lexically, so the
        hottest stacks lead and the output is deterministic for a given
        sample set.  Feed the text to any flamegraph renderer
        (``flamegraph.pl``, speedscope, inferno).
        """
        rows = [
            (count, ";".join(stack))
            for stack, count in self.stacks.items()
            if count >= min_count
        ]
        rows.sort(key=lambda item: (-item[0], item[1]))
        return "\n".join(f"{stack} {count}" for count, stack in rows)

    def save(self, path: str, min_count: int = 1) -> str:
        """Write :meth:`collapsed` output to ``path``; returns the path."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        text = self.collapsed(min_count=min_count)
        with open(path, "w") as handle:
            handle.write(text + ("\n" if text else ""))
        return path

    def top(self, limit: int = 10) -> List[Tuple[str, int]]:
        """The ``limit`` hottest *innermost frames* with sample counts."""
        leaves: Dict[str, int] = {}
        for stack, count in self.stacks.items():
            leaf = stack[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]
