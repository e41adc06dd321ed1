"""Tests for parallel_map and the grid-parallel experiment sweeps."""

import os

import numpy as np
import pytest

from repro.experiments import smoke_scale
from repro.experiments.ablations import run_step_size_ablation
from repro.experiments.figure1 import FIGURE1_CLASSIFIERS, run_figure1
from repro.parallel import WorkerCrash, WorkerError, parallel_map


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

        with pytest.raises(WorkerError) as excinfo:
            parallel_map(sometimes, [1, 2, 3], num_workers=2)
        assert "bad cell" in excinfo.value.remote_traceback

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
