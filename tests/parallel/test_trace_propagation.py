"""Cross-process trace propagation through parallel_map's workers.

The contract: with telemetry enabled, each worker returns the span and
event records of every call with its result, and the parent passes them
to its own sinks, so every span a worker emits lands in the parent's one
run record.  When the map is called inside a traced span, the workers
also adopt that span's trace context around every call: root spans the
mapped function opens carry the parent's ``trace_id`` and parent on the
calling span.
"""

import multiprocessing
import os
from collections import Counter

import pytest

from repro import telemetry as tel
from repro.experiments import smoke_scale
from repro.experiments.figure1 import run_figure1
from repro.parallel import parallel_map
from repro.telemetry.sinks import load_records
from repro.telemetry.trace import TraceCollector


def _traced_work(barrier):
    """A mapped function that opens a (root) span in two distinct workers.

    Neither call returns before both have started, so the two items run
    in two different processes.
    """

    def work(item):
        barrier.wait(timeout=30)
        with tel.span("work", item=item):
            pass
        return os.getpid()

    return work


@pytest.fixture
def clean_telemetry():
    previous = tel.set_enabled(False)
    tel.reset_metrics()
    yield
    tel.set_enabled(previous)
    tel.reset_metrics()


def _work_spans(run):
    """The ``work`` span records of a run record."""
    return [
        r for r in load_records(run)
        if r.get("type") == "span" and r.get("name") == "work"
    ]


def _epoch_spans(run):
    """``(trainer, epoch)`` of every epoch span in a run record."""
    return Counter(
        (r["attrs"]["trainer"], r["attrs"]["epoch"])
        for r in load_records(run)
        if r.get("type") == "span" and r.get("name") == "epoch"
    )


class TestTracePropagation:
    def test_worker_spans_join_the_parent_trace(self, tmp_path,
                                                clean_telemetry):
        run = str(tmp_path / "run.jsonl")
        work = _traced_work(multiprocessing.get_context("fork").Barrier(2))
        with tel.capture(jsonl=run):
            with tel.span("epoch", emit=True) as epoch:
                worker_pids = set(parallel_map(work, [0, 1], num_workers=2))
                parent_ids = {epoch.span_id}
                trace_id = epoch._resolve_trace_id()

        assert len(worker_pids) == 2  # two distinct child processes
        assert os.getpid() not in worker_pids

        assert not os.path.exists(f"{run}.spool")
        records = _work_spans(run)
        assert len(records) == 2
        for record in records:
            assert record["trace_id"] == trace_id
            assert record["parent_id"] in parent_ids
            assert record["pid"] in worker_pids

        # The one run record holds the whole cross-process trace.
        collector = TraceCollector.from_run(run)
        assert collector.trace_ids() == [trace_id]
        text = collector.render_one(trace_id)
        assert "3 span(s), 3 process(es)" in text

    def test_untraced_send_has_no_envelope_overhead(self, tmp_path,
                                                    clean_telemetry,
                                                    monkeypatch):
        """Telemetry off: the workers return bare results, no records."""
        monkeypatch.chdir(tmp_path)
        work = _traced_work(multiprocessing.get_context("fork").Barrier(2))
        pids = parallel_map(work, [0, 1], num_workers=2)
        assert all(type(pid) is int for pid in pids)
        assert len(set(pids)) == 2
        assert os.listdir(tmp_path) == []  # no spool or run record appears

    def test_untraced_send_still_reaches_the_run_record(self, tmp_path,
                                                        clean_telemetry):
        """Telemetry on but no open span: worker spans still arrive."""
        run = str(tmp_path / "run.jsonl")
        work = _traced_work(multiprocessing.get_context("fork").Barrier(2))
        with tel.capture(jsonl=run):
            parallel_map(work, [0, 1], num_workers=2)
        assert os.listdir(tmp_path) == ["run.jsonl"]
        records = _work_spans(run)
        assert [r["attrs"]["item"] for r in records] == [0, 1]
        # Each worker's span roots its own trace.
        assert all(r["parent_id"] is None for r in records)

    def test_figure1_grid_workers_record_every_epoch(self, tmp_path,
                                                     clean_telemetry):
        """A 2-worker figure1 grid records the serial run's epoch spans
        in its run record alone."""
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
            assert not os.path.exists(f"{run}.spool")
        assert sum(runs[1].values()) == 16
        assert runs[2] == runs[1]
