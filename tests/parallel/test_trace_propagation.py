"""Cross-process trace propagation through parallel_map's workers.

The contract: with telemetry enabled, parallel_map hands each worker the
capture's spool directory at start-up, so every span a worker emits lands
in its own spool file.  When the map is called inside a traced span, the
workers also adopt that span's trace context around every call: root
spans the mapped function opens carry the parent's ``trace_id`` and
parent on the calling span.
"""

import json
import multiprocessing
import os
from collections import Counter

import pytest

from repro import telemetry as tel
from repro.experiments import smoke_scale
from repro.experiments.figure1 import run_figure1
from repro.parallel import parallel_map
from repro.telemetry import trace as teltrace
from repro.telemetry.sinks import load_records
from repro.telemetry.trace import TraceCollector, shutdown_spool


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
        work = _traced_work(multiprocessing.get_context("fork").Barrier(2))
        with tel.capture(jsonl=run):
            with tel.span("epoch", emit=True) as epoch:
                worker_pids = set(parallel_map(work, [0, 1], num_workers=2))
                parent_ids = {epoch.span_id}
                trace_id = epoch._resolve_trace_id()

        assert len(worker_pids) == 2  # two distinct child processes
        assert os.getpid() not in worker_pids

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
        """Telemetry off: workers attach no spool, even with one armed."""
        spool = str(tmp_path / "spool")
        previous = teltrace.set_spool_dir(spool)
        try:
            work = _traced_work(
                multiprocessing.get_context("fork").Barrier(2)
            )
            parallel_map(work, [0, 1], num_workers=2)
        finally:
            teltrace.set_spool_dir(previous)
        assert not os.path.exists(spool)

    def test_untraced_send_still_reaches_the_spool(self, tmp_path,
                                                   clean_telemetry):
        """Telemetry on but no open span: the workers still spool."""
        run = str(tmp_path / "run.jsonl")
        work = _traced_work(multiprocessing.get_context("fork").Barrier(2))
        with tel.capture(jsonl=run):
            parallel_map(work, [0, 1], num_workers=2)
        records = _spool_records(f"{run}.spool")
        assert [r["name"] for r in records] == ["work", "work"]
        # Each worker's span roots its own trace.
        assert all(r["parent_id"] is None for r in records)

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
