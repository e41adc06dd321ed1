"""Tests for parallel_map and the grid-parallel experiment sweeps."""

import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest

from repro import telemetry as tel
from repro.autograd._lanes import lane_count
from repro.experiments import smoke_scale
from repro.experiments.ablations import (
    DEFAULT_RESET_INTERVALS,
    run_reset_interval_ablation,
    run_step_size_ablation,
)
from repro.experiments.figure1 import FIGURE1_CLASSIFIERS, run_figure1
from repro.parallel import WorkerCrash, parallel_map
from repro.parallel.grid import _openblas
from repro.telemetry.sinks import load_records
from tests.helpers import kernel_lanes


class TestParallelMap:
    def test_preserves_input_order(self):
        results = parallel_map(lambda x: x * x, list(range(7)), num_workers=3)
        assert results == [x * x for x in range(7)]

    def test_serial_fallback_runs_in_parent(self):
        pids = parallel_map(lambda _: os.getpid(), [1, 2, 3], num_workers=1)
        assert set(pids) == {os.getpid()}

    def test_single_item_runs_in_parent(self):
        pids = parallel_map(lambda _: os.getpid(), [1], num_workers=4)
        assert pids == [os.getpid()]

    def test_workers_are_forked(self):
        pids = parallel_map(
            lambda _: os.getpid(), list(range(6)), num_workers=2
        )
        assert os.getpid() not in pids
        assert 1 <= len(set(pids)) <= 2

    def test_closures_are_inherited(self):
        table = {"offset": 100}
        results = parallel_map(
            lambda x: x + table["offset"], [1, 2, 3, 4], num_workers=2
        )
        assert results == [101, 102, 103, 104]

    def test_more_workers_than_items_is_capped(self):
        assert parallel_map(
            lambda x: -x, [1, 2], num_workers=8
        ) == [-1, -2]

    def test_exception_propagates_as_worker_error(self):
        def sometimes(x):
            if x == 2:
                raise ValueError("bad cell")
            return x

        # The same type the serial loop would raise, not a wrapper.
        with pytest.raises(ValueError, match="bad cell"):
            parallel_map(sometimes, [1, 2, 3], num_workers=2)

    def test_crash_names_the_grid_item(self):
        def die(x):
            if x == "victim":
                os._exit(13)
            return x

        with pytest.raises(WorkerCrash) as excinfo:
            parallel_map(die, ["a", "victim", "b"], num_workers=2)
        assert "victim" in str(excinfo.value)

    def test_env_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pids = parallel_map(lambda _: os.getpid(), list(range(4)))
        assert os.getpid() not in pids

    def test_workers_run_one_blas_thread(self):
        get_threads = getattr(
            _openblas(), "scipy_openblas_get_num_threads64_", None
        )
        if get_threads is None:
            pytest.skip("numpy is not built on scipy-openblas")
        before = get_threads()
        assert parallel_map(
            lambda _: get_threads(), [0, 1], num_workers=2
        ) == [1, 1]
        assert get_threads() == before

    def test_workers_run_one_kernel_lane(self):
        """Next to the BLAS cap: N workers put N busy threads on the cores,
        not N times the parent's kernel lanes."""
        with kernel_lanes(2):
            assert parallel_map(
                lambda _: lane_count(), [0, 1], num_workers=2
            ) == [1, 1]
            assert lane_count() == 2


class TestGridSweeps:
    def test_ablation_grid_parallel_matches_serial(self):
        config = smoke_scale(
            "digits",
            train_per_class=8,
            test_per_class=4,
            epochs=2,
            warmup_epochs=1,
        )
        fractions = (0.5, 1.0)
        serial = run_step_size_ablation(config, step_fractions=fractions)
        parallel = run_step_size_ablation(
            config.with_overrides(workers=2), step_fractions=fractions
        )
        assert serial.values == parallel.values
        for serial_acc, parallel_acc in zip(
            serial.accuracy, parallel.accuracy
        ):
            for attack in serial_acc:
                np.testing.assert_allclose(
                    serial_acc[attack],
                    parallel_acc[attack],
                    rtol=1e-6,
                    atol=1e-9,
                    err_msg=f"grid sweep diverged on {attack}",
                )

    def test_figure1_grid_parallel_matches_serial(self):
        config = smoke_scale(
            "digits",
            train_per_class=8,
            test_per_class=4,
            epochs=2,
            warmup_epochs=1,
        )
        counts = (1, 2, 3)
        serial = run_figure1(config, iteration_counts=counts)
        parallel = run_figure1(
            config.with_overrides(workers=2), iteration_counts=counts
        )
        assert list(parallel.curves) == list(FIGURE1_CLASSIFIERS)
        for name in FIGURE1_CLASSIFIERS:
            assert np.array_equal(
                serial.curves[name], parallel.curves[name]
            ), f"grid curve diverged for {name}"


def _spanning_work(barrier):
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


class TestRunRecord:
    """With telemetry on, each worker returns the span and event records
    of every call with its result, and the parent passes them to its own
    sinks, so every span a worker emits lands in the one run record."""

    def test_worker_spans_reach_the_run_record(self, tmp_path,
                                               clean_telemetry):
        run = str(tmp_path / "run.jsonl")
        work = _spanning_work(multiprocessing.get_context("fork").Barrier(2))
        with tel.capture(jsonl=run):
            with tel.span("epoch", emit=True):
                worker_pids = set(parallel_map(work, [0, 1], num_workers=2))

        assert len(worker_pids) == 2  # two distinct child processes
        assert os.getpid() not in worker_pids
        records = _work_spans(run)
        assert [r["attrs"]["item"] for r in records] == [0, 1]
        assert {r["pid"] for r in records} == worker_pids

    def test_untraced_send_has_no_envelope_overhead(self, tmp_path,
                                                    clean_telemetry,
                                                    monkeypatch):
        """Telemetry off: the workers return bare results, no records."""
        monkeypatch.chdir(tmp_path)
        work = _spanning_work(multiprocessing.get_context("fork").Barrier(2))
        pids = parallel_map(work, [0, 1], num_workers=2)
        assert all(type(pid) is int for pid in pids)
        assert len(set(pids)) == 2
        assert os.listdir(tmp_path) == []  # no spool or run record appears

    def test_untraced_send_still_reaches_the_run_record(self, tmp_path,
                                                        clean_telemetry):
        """Telemetry on but no open span: worker spans still arrive."""
        run = str(tmp_path / "run.jsonl")
        work = _spanning_work(multiprocessing.get_context("fork").Barrier(2))
        with tel.capture(jsonl=run):
            parallel_map(work, [0, 1], num_workers=2)
        assert os.listdir(tmp_path) == ["run.jsonl"]
        records = _work_spans(run)
        assert [r["attrs"]["item"] for r in records] == [0, 1]

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

    def test_ablation_cells_get_one_summary_row_each(self, clean_telemetry):
        """The reset-interval cells share a trainer name; their epoch
        spans carry the interval, so the report keeps them apart."""
        sink = tel.InMemorySink()
        with tel.capture(sink=sink):
            run_reset_interval_ablation(
                smoke_scale("digits").with_overrides(workers=2)
            )
        report = tel.build_report(sink.records)
        keys = report.keys()
        assert [trainer for trainer, _knobs in keys] == ["epochwise_adv"] * 4
        intervals = [knobs[0] for _trainer, knobs in keys]
        assert sorted(intervals) == sorted(DEFAULT_RESET_INTERVALS)
        for interval in intervals:
            rows = report.epochs_for("epochwise_adv", reset_interval=interval)
            assert [row.epoch for row in rows] == [0, 1, 2, 3]
        summary = report.render_summary().splitlines()
        assert summary[1].split()[:4] == [
            "trainer", "reset_interval", "step_size", "epochs",
        ]
        named = [line.split()[1] for line in summary[3:]]
        assert named == [str(interval) for interval in intervals]
        assert all(line.split()[3] == "4" for line in summary[3:])
