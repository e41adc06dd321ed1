"""Integration tests: instrumented training/attacks/eval end to end."""

import pytest

from repro import telemetry as tel
from repro.attacks import (
    AttackLoop,
    BackpropGradient,
    GradientStep,
    LinfBoxProjection,
    Misclassified,
    SignStep,
)
from repro.cli import main
from repro.data import DataLoader
from repro.defenses import Checkpointer, EarlyStopping, build_trainer
from repro.eval import RobustnessEvaluator
from repro.models import mnist_mlp
from repro.telemetry import InMemorySink, build_report


def fit_epochwise(train, sink, epochs=3, verbose=False):
    model = mnist_mlp(seed=0)
    trainer = build_trainer(
        "proposed", model, epsilon=0.25, lr=2e-3, warmup_epochs=1
    )
    with tel.capture(sink=sink):
        history = trainer.fit(
            DataLoader(train, batch_size=64, rng=0),
            epochs=epochs,
            verbose=verbose,
        )
    return trainer, history


class TestEpochwiseRun:
    """The ISSUE acceptance scenario: per-epoch phase records from a run."""

    @pytest.fixture(scope="class")
    def run(self, digits_small):
        train, _test = digits_small
        sink = InMemorySink()
        trainer, history = fit_epochwise(train, sink)
        return sink, trainer, history

    def test_one_epoch_span_per_epoch(self, run):
        sink, trainer, history = run
        spans = sink.spans("epoch")
        assert len(spans) == len(history.epoch_seconds) == 3
        assert [s["attrs"]["epoch"] for s in spans] == [0, 1, 2]
        assert all(s["attrs"]["trainer"] == "epochwise_adv" for s in spans)
        assert all("loss" in s["attrs"] for s in spans)

    def test_epoch_durations_match_epoch_timer_within_1pct(self, run):
        sink, _trainer, history = run
        spans = sink.spans("epoch")
        for span, timed in zip(spans, history.epoch_seconds):
            assert span["duration"] == pytest.approx(timed, rel=0.01)

    def test_phase_breakdown(self, run):
        sink, _trainer, _history = run
        report = build_report(sink.records)
        warmup, *adversarial = report.epochs
        # Warmup epoch trains on clean examples only: no attack phase.
        assert warmup.phases["attack"] == 0.0
        for row in adversarial:
            assert row.phases["attack"] > 0.0
        for row in report.epochs:
            assert row.phases["forward"] > 0.0
            assert row.phases["backward"] > 0.0
            assert row.phases["optimizer"] > 0.0
            assert sum(row.phases.values()) <= row.total
        assert report.time_per_epoch("epochwise_adv") == pytest.approx(
            sum(r.total for r in report.epochs) / 3
        )

    def test_data_counters(self, run, digits_small):
        sink, _trainer, _history = run
        train, _test = digits_small
        batches_per_epoch = len(DataLoader(train, batch_size=64, rng=0))
        counters = sink.metrics()["counters"]
        assert counters["data.batches"] == 3 * batches_per_epoch
        assert counters["data.examples"] == 3 * len(train)

    def test_workspace_gauges(self, run):
        sink, _trainer, _history = run
        gauges = sink.metrics()["gauges"]
        assert "workspace.pool.hits" in gauges
        assert "workspace.pool.misses" in gauges
        assert gauges["workspace.pool.high_water_bytes"] >= gauges[
            "workspace.pool.bytes"
        ]

    def test_report_renders(self, run):
        sink, _trainer, _history = run
        text = build_report(sink.records).render()
        assert "epochwise_adv" in text
        assert "attack_s" in text


class TestAttackLoopCounters:
    def make_loop(self, model, early_stop):
        return AttackLoop(
            model,
            GradientStep(
                BackpropGradient(model),
                SignStep(0.025),
                LinfBoxProjection(0.25),
            ),
            num_steps=10,
            stop=Misclassified(),
            early_stop=early_stop,
        )

    def test_early_stop_counters(self, trained_mlp, tiny_batch, enabled):
        x, y = tiny_batch
        self.make_loop(trained_mlp, True).run(x, y)
        snapshot = tel.get_metrics().snapshot()
        counters = snapshot["counters"]
        assert counters["attack.loop.runs"] == 1
        assert 1 <= counters["attack.loop.iterations"] <= 10
        # Every example either retired early or survived the full budget.
        assert (
            counters["attack.early_stop.retired"]
            + counters["attack.early_stop.survivors"]
        ) == len(x)
        hist = snapshot["histograms"]["attack.early_stop.retired_per_step"]
        assert hist["total"] == counters["attack.early_stop.retired"]

    def test_unmasked_counters(self, trained_mlp, tiny_batch, enabled):
        x, y = tiny_batch
        self.make_loop(trained_mlp, False).run(x, y)
        counters = tel.get_metrics().snapshot()["counters"]
        assert counters["attack.loop.runs"] == 1
        assert counters["attack.loop.iterations"] == 10
        assert "attack.early_stop.retired" not in counters

    def test_disabled_records_nothing(self, trained_mlp, tiny_batch):
        x, y = tiny_batch
        self.make_loop(trained_mlp, True).run(x, y)
        assert tel.get_metrics().snapshot()["counters"] == {}


class TestEvalInstrumentation:
    def test_eval_cells_emit_spans(self, trained_mlp, tiny_batch, enabled,
                                   memory_sink):
        x, y = tiny_batch
        suite = RobustnessEvaluator.from_specs(
            ("original", "fgsm"), epsilon=0.25
        )
        results = suite.evaluate(trained_mlp, x, y)
        cells = memory_sink.spans("eval.cell")
        assert [c["attrs"]["attack"] for c in cells] == ["original", "fgsm"]
        for cell in cells:
            assert cell["attrs"]["accuracy"] == results[
                cell["attrs"]["attack"]
            ]
        counters = tel.get_metrics().snapshot()["counters"]
        assert counters["eval.examples"] == 2 * len(x)


class TestCallbackEvents:
    def test_checkpointer_emits_events(self, tmp_path, memory_sink):
        model = mnist_mlp(seed=0)
        ckpt = Checkpointer(str(tmp_path), every=2, keep_best=True)
        ckpt.on_epoch_end(2, model, 0.5)
        events = memory_sink.events("checkpoint.saved")
        assert [e["fields"]["kind"] for e in events] == ["periodic", "best"]
        assert events[1]["fields"]["metric"] == 0.5

    def test_early_stopping_emits_event(self, memory_sink):
        model = mnist_mlp(seed=0)
        stopper = EarlyStopping(patience=1, mode="max")
        stopper.on_epoch_end(1, model, 0.9)
        assert stopper.on_epoch_end(2, model, 0.8)
        [triggered] = memory_sink.events("early_stop.triggered")
        assert triggered["fields"] == {"epoch": 2, "best": 0.9, "patience": 1}

    def test_verbose_fit_prints_events(self, tmp_path, digits_small, capsys):
        train, _test = digits_small
        model = mnist_mlp(seed=0)
        trainer = build_trainer("vanilla", model, epsilon=0.25, lr=2e-3)
        trainer.fit(
            DataLoader(train, batch_size=64, rng=0),
            epochs=2,
            verbose=True,
            callbacks=[Checkpointer(str(tmp_path), every=1, keep_best=False)],
        )
        out = capsys.readouterr().out
        assert "[telemetry] checkpoint.saved" in out
        assert "kind=periodic" in out

    def test_epochwise_cache_reset_event(self, digits_small, memory_sink):
        train, _test = digits_small
        model = mnist_mlp(seed=0)
        trainer = build_trainer(
            "proposed", model, epsilon=0.25, lr=2e-3,
            warmup_epochs=0, reset_interval=1,
        )
        with tel.capture(sink=InMemorySink()):
            trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=3)
        resets = memory_sink.events("epochwise.cache_reset")
        assert [e["fields"]["epoch"] for e in resets] == [1, 2]
        assert all(e["fields"]["dropped"] == len(train) for e in resets)


class TestReportCommand:
    def test_report_cli_end_to_end(self, digits_small, tmp_path, capsys):
        train, _test = digits_small
        path = str(tmp_path / "run.jsonl")
        model = mnist_mlp(seed=0)
        trainer = build_trainer("vanilla", model, epsilon=0.25, lr=2e-3)
        with tel.capture(jsonl=path):
            trainer.fit(DataLoader(train, batch_size=64, rng=0), epochs=2)
        csv_path = str(tmp_path / "epochs.csv")
        assert main(["report", path, "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "Training time per epoch" in out
        assert "vanilla" in out
        lines = open(csv_path).read().splitlines()
        assert lines[0].startswith("trainer,epoch,total_s,data_s")
        assert len(lines) == 3  # header + 2 epochs

    def test_telemetry_flag_records_cli_run(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        code = main(
            ["audit", "--scale", "smoke", "--defense", "vanilla",
             "--telemetry", path]
        )
        assert code in (0, 1)  # masking verdict may flag at smoke scale
        capsys.readouterr()
        report = build_report(path)
        assert report.trainers() == ["vanilla"]
        assert len(report.epochs) == 4  # smoke-scale epochs
        assert main(["report", path, "--summary"]) == 0
        assert "Training time per epoch" in capsys.readouterr().out
