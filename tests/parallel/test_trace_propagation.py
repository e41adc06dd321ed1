"""Cross-process trace propagation through the worker pool.

The contract: with telemetry enabled, ``WorkerPool.send`` wraps the
payload in an envelope carrying the capture's spool directory, so every
span a worker emits lands in its own spool file.  When the send happens
inside a traced span the envelope also carries the trace context: the
worker adopts it for the handler call, and root spans the handler opens
carry the parent's ``trace_id`` and parent on the dispatching span.
"""

import json
import os
from collections import Counter

import pytest

from repro import telemetry as tel
from repro.experiments import smoke_scale
from repro.experiments.figure1 import run_figure1
from repro.parallel import WorkerPool
from repro.telemetry.sinks import load_records
from repro.telemetry.trace import TraceCollector, shutdown_spool


def traced_work(worker_id, message):
    """Handler that opens a (root) span; emits to the worker's spool."""
    tel.set_enabled(True)
    with tel.span("work", worker=worker_id):
        pass
    return (os.getpid(), message)


@pytest.fixture
def clean_telemetry():
    previous = tel.set_enabled(False)
    tel.reset_metrics()
    yield
    shutdown_spool()
    tel.set_enabled(previous)
    tel.reset_metrics()


def _spool_records(spool):
    records = []
    for name in sorted(os.listdir(spool)):
        with open(os.path.join(spool, name)) as handle:
            records.extend(
                json.loads(line) for line in handle if line.strip()
            )
    return records


def _epoch_spans(run):
    """``(trainer, epoch)`` of every epoch span in a run and its spools."""
    records = load_records(run)
    spool = f"{run}.spool"
    if os.path.isdir(spool):
        records += _spool_records(spool)
    return Counter(
        (r["attrs"]["trainer"], r["attrs"]["epoch"])
        for r in records
        if r.get("type") == "span" and r.get("name") == "epoch"
    )


class TestTracePropagation:
    def test_worker_spans_join_the_parent_trace(self, tmp_path,
                                                clean_telemetry):
        run = str(tmp_path / "run.jsonl")
        pool = WorkerPool(2, traced_work, name="repro-trace-test")
        pool.start()
        try:
            with tel.capture(jsonl=run):
                with tel.span("epoch", emit=True) as epoch:
                    for worker_id in range(2):
                        pool.send(worker_id, "step")
                    replies = [pool.recv(w, timeout=30) for w in range(2)]
                    parent_ids = {epoch.span_id}
                    trace_id = epoch._resolve_trace_id()
        finally:
            pool.shutdown()

        worker_pids = {pid for pid, _msg in replies}
        assert len(worker_pids) == 2  # two distinct child processes

        spool = f"{run}.spool"
        records = _spool_records(spool)
        assert len(records) == 2
        for record in records:
            assert record["name"] == "work"
            assert record["trace_id"] == trace_id
            assert record["parent_id"] in parent_ids
            assert record["pid"] in worker_pids

        # The collector merges run record + spools into ONE trace.
        collector = TraceCollector.from_run(run)
        assert collector.trace_ids() == [trace_id]
        text = collector.render_one(trace_id)
        assert "3 span(s), 3 process(es)" in text

    def test_untraced_send_has_no_envelope_overhead(self, tmp_path,
                                                    clean_telemetry):
        """Telemetry off: workers see the raw payload, no spool appears."""
        seen = []

        def echo(worker_id, message):
            return message

        pool = WorkerPool(1, echo)
        pool.start()
        try:
            pool.send(0, ("plain", "tuple"))
            assert pool.recv(0) == ("plain", "tuple")
        finally:
            pool.shutdown()
        assert not os.listdir(str(tmp_path))

    def test_traced_payloads_shaped_like_envelopes_pass_through(
        self, tmp_path, clean_telemetry
    ):
        """A 4-tuple user payload must not be eaten by envelope unwrap."""
        payload = ("a", "b", "c", "d")

        def echo(worker_id, message):
            return message

        run = str(tmp_path / "run.jsonl")
        pool = WorkerPool(1, echo)
        pool.start()
        try:
            with tel.capture(jsonl=run):
                with tel.span("root", emit=True):
                    pool.send(0, payload)
                    assert pool.recv(0, timeout=30) == payload
        finally:
            pool.shutdown()

    def test_untraced_send_still_reaches_the_spool(self, tmp_path,
                                                   clean_telemetry):
        """Telemetry on but no open span: the worker still spools."""
        run = str(tmp_path / "run.jsonl")
        pool = WorkerPool(1, traced_work)
        pool.start()
        try:
            with tel.capture(jsonl=run):
                pool.send(0, "step")
                pool.recv(0, timeout=30)
        finally:
            pool.shutdown()
        records = _spool_records(f"{run}.spool")
        assert [r["name"] for r in records] == ["work"]

    def test_figure1_grid_workers_record_every_epoch(self, tmp_path,
                                                     clean_telemetry):
        """A 2-worker figure1 grid records the serial run's epoch spans."""
        config = smoke_scale("digits")
        runs = {}
        for workers in (1, 2):
            run = str(tmp_path / f"fig1_w{workers}.jsonl")
            with tel.capture(jsonl=run):
                run_figure1(
                    config.with_overrides(workers=workers),
                    iteration_counts=(1, 2),
                )
            runs[workers] = _epoch_spans(run)
        assert sum(runs[1].values()) == 16
        assert runs[2] == runs[1]
