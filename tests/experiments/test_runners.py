"""Integration tests for the experiment runners (smoke scale).

These run the real Figure 1 / Figure 2 / Table I pipelines end-to-end on a
tiny configuration — training included — so they are the slowest tests in
the suite, but they guard the paper-artefact code paths.
"""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.experiments import (
    ClassifierPool,
    FIGURE1_CLASSIFIERS,
    TABLE1_METHODS,
    Table1Result,
    run_figure1,
    run_figure2,
    run_reset_interval_ablation,
    run_step_size_ablation,
    run_table1,
    smoke_scale,
)
from repro.defenses import defense_names
from tests.helpers import count_passes


@pytest.fixture(scope="module")
def pool():
    """One shared pool: each defense trains once for all runner tests."""
    return ClassifierPool(smoke_scale("digits"))


@pytest.fixture(scope="module")
def config(pool):
    return pool.config


class TestClassifierPool:
    def test_caches_trained_models(self, pool):
        a = pool.get("vanilla")
        b = pool.get("vanilla")
        assert a is b

    def test_overrides_bypass_cache(self, pool):
        base = pool.get("proposed")
        variant = pool.get("proposed", reset_interval=1)
        assert variant is not base
        assert pool.get("proposed") is base

    def test_epsilon_resolution(self, pool):
        assert pool.epsilon == 0.25

    def test_history_records_timing(self, pool):
        defense = pool.get("vanilla")
        assert defense.time_per_epoch > 0.0

    @pytest.mark.parametrize("name", defense_names())
    def test_trains_every_defense(self, pool, name):
        """The pool's shared trainer kwargs (``warmup_epochs``) suit every
        registered defense, extensions included."""
        history = pool.get(name).history
        assert len(history.losses) == pool.config.epochs
        assert np.all(np.isfinite(history.losses))

    @pytest.mark.parametrize("name", ["pgd_adv", "pgd3_adv"])
    def test_pgd_training_is_reproducible(self, name):
        """PGD's random start is seeded from the experiment seed: two
        fresh pools train the same losses bit for bit."""
        runs = [
            ClassifierPool(smoke_scale("digits")).get(name).history.losses
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestFigure1Runner:
    def test_curves_for_all_classifiers(self, config, pool):
        result = run_figure1(config, pool=pool, iteration_counts=(1, 2))
        assert set(result.curves) == set(FIGURE1_CLASSIFIERS)
        for curve in result.curves.values():
            assert len(curve) == 2
            assert all(0.0 <= v <= 1.0 for v in curve)

    def test_render_and_save(self, config, pool, tmp_path):
        result = run_figure1(config, pool=pool, iteration_counts=(1,))
        text = result.render()
        assert "Figure 1" in text
        path = str(tmp_path / "fig1.json")
        result.save(path)
        from repro.utils import load_json

        loaded = load_json(path)
        assert loaded["dataset"] == "digits"


class TestFigure2Runner:
    def test_curve_lengths(self, config, pool):
        result = run_figure2(config, pool=pool, num_steps=3)
        for curve in result.curves.values():
            assert len(curve) == 3

    def test_render(self, config, pool):
        result = run_figure2(config, pool=pool, num_steps=2)
        assert "Figure 2" in result.render()


class TestTable1Runner:
    def test_grid_complete(self, config, pool):
        result = run_table1(config, pool=pool)
        assert set(result.accuracy) == set(TABLE1_METHODS)
        for row in result.accuracy.values():
            assert set(row) == {"original", "fgsm", "bim10", "bim30"}
        assert set(result.time_per_epoch) == set(TABLE1_METHODS)

    def test_timing_ordering_iter_vs_single(self):
        """Even at smoke scale, BIM(30)-Adv must cost more per batch than
        BIM(10)-Adv, and BIM(10)-Adv more than the proposed single-step
        method — the paper's structural claim, counted in backward passes
        (as tests/defenses/test_pass_counts.py counts them) rather than read
        off a clock; bench_table1.py asserts the s/epoch ordering above
        smoke scale."""
        per_batch = {}
        for method in ("proposed", "bim10_adv", "bim30_adv"):
            fresh = ClassifierPool(smoke_scale("digits"))
            loader = DataLoader(
                fresh.train_set, batch_size=fresh.config.batch_size
            )
            with count_passes() as counts:
                fresh.get(method)
            per_batch[method] = counts["backward"] / (
                fresh.config.epochs * len(loader)
            )
        assert (
            per_batch["bim30_adv"]
            > per_batch["bim10_adv"]
            > per_batch["proposed"]
        ), per_batch

    def test_improvement_and_speedup_helpers(self):
        # A hand-built table: no wall clock, so the values are exact.
        result = Table1Result(
            dataset="digits",
            epsilon=0.25,
            accuracy={
                "proposed": {"fgsm": 0.875, "bim10": 0.75},
                "atda": {"fgsm": 0.625, "bim10": 0.5},
            },
            time_per_epoch={"proposed": 1.0, "bim30_adv": 4.0},
        )
        assert result.improvement_over("proposed", "atda", "bim10") == 0.25
        assert result.improvement_over("atda", "proposed", "fgsm") == -0.25
        assert result.speedup_over("proposed", "bim30_adv") == 0.75
        assert result.speedup_over("bim30_adv", "proposed") == -3.0

    def test_render_contains_methods(self, config, pool):
        text = run_table1(config, pool=pool).render()
        for name in TABLE1_METHODS:
            assert name in text


class TestAblationRunners:
    def test_step_size_sweep(self, config, pool):
        result = run_step_size_ablation(
            config, pool=pool, step_fractions=(0.5, 1.0)
        )
        assert result.values == [0.5, 1.0]
        assert len(result.accuracy) == 2
        assert "step_size" in result.render()

    def test_reset_interval_sweep(self, config, pool):
        result = run_reset_interval_ablation(
            config, pool=pool, reset_intervals=(1, 0)
        )
        assert result.values == [1.0, 0.0]
        assert all("bim10" in acc for acc in result.accuracy)
