"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.telemetry import load_records


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.dataset == "digits"
        assert args.scale == "medium"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resnet"])

    def test_ablate_knob_choices(self):
        args = build_parser().parse_args(["ablate", "--knob", "reset_interval"])
        assert args.knob == "reset_interval"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablate", "--knob", "nope"])

    def test_workers_flag(self):
        for command in ("figure1", "ablate"):
            args = build_parser().parse_args([command, "--workers", "4"])
            assert args.workers == 4
            args = build_parser().parse_args([command])
            assert args.workers is None
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--workers", "two"])

    @pytest.mark.parametrize(
        "command", ["table1", "figure2", "audit", "serve"]
    )
    def test_workers_flag_only_on_grid_commands(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["table1", "figure1", "figure2", "ablate", "audit", "serve"],
    )
    def test_stream_flags_removed(self, command, capsys):
        # Streaming is a library API only; none of its three former
        # flags parses on any subcommand.
        for stem in ("stream", "shard-size", "data-budget-mb"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, f"--{stem}"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: --{stem}" in err

    def test_workers_threads_into_config(self):
        from repro.cli import _config_for

        args = build_parser().parse_args(["figure1", "--workers", "2"])
        assert _config_for(args).workers == 2
        args = build_parser().parse_args(["figure1"])
        assert _config_for(args).workers is None
        args = build_parser().parse_args(["table1"])
        assert _config_for(args).workers is None


class TestSmokeRuns:
    """End-to-end CLI runs at smoke scale (slow-ish but full-path)."""

    def test_table1_smoke(self, capsys, tmp_path):
        save = str(tmp_path / "t1.json")
        code = main(
            ["table1", "--scale", "smoke", "--dataset", "digits",
             "--save", save]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        with open(save) as handle:
            payload = json.load(handle)
        assert payload["dataset"] == "digits"

    def test_figure1_smoke(self, capsys):
        code = main(["figure1", "--scale", "smoke"])
        assert code == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_figure2_smoke(self, capsys):
        code = main(["figure2", "--scale", "smoke"])
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_ablate_smoke(self, capsys):
        code = main(["ablate", "--scale", "smoke", "--knob", "step_size"])
        assert code == 0
        assert "step_size" in capsys.readouterr().out

    def test_audit_smoke(self, capsys):
        code = main(
            ["audit", "--scale", "smoke", "--defense", "fgsm_adv"]
        )
        out = capsys.readouterr().out
        assert "robust accuracy" in out
        assert "gradient-masking diagnostics" in out
        assert code in (0, 1)  # masking verdict may flag at smoke scale

    def test_audit_trains_through_classifier_pool(self, capsys):
        from repro.eval import RobustnessEvaluator
        from repro.experiments import ClassifierPool, smoke_scale

        main(["audit", "--scale", "smoke", "--defense", "fgsm_adv"])
        printed = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("robust accuracy: ")
        ]
        config = smoke_scale("digits")
        pool = ClassifierPool(config)
        suite = RobustnessEvaluator.paper_suite(config.resolved_epsilon)
        accuracy = suite.evaluate(
            pool.get("fgsm_adv").model, pool.test_x, pool.test_y
        )
        assert printed == [f"robust accuracy: {accuracy}"]

    @pytest.mark.parametrize(
        "spec", ["mim", "bim:early_stop=true", "pgd:restarts=3"]
    )
    def test_audit_rejects_bad_spec_before_training(
        self, spec, monkeypatch, capsys
    ):
        from repro.experiments import ClassifierPool

        def no_training(self, name, **overrides):
            raise AssertionError("audit trained before checking its specs")

        monkeypatch.setattr(ClassifierPool, "get", no_training)
        code = main(["audit", "--scale", "smoke", "--attack", spec])
        assert code == 2
        assert "bad --attack spec" in capsys.readouterr().err


class TestObservabilityCommands:
    def _run_record(self, tmp_path):
        """A tiny run record holding one worker (pid 2) span."""
        run = tmp_path / "run.jsonl"
        epoch = {
            "type": "span", "name": "epoch", "ts": 0.0, "duration": 2.0,
            "self": 2.0, "pid": 1, "thread": "MainThread",
            "children": {}, "attrs": {"trainer": "proposed", "epoch": 0},
        }
        shard = dict(
            epoch, name="shard", ts=0.5, duration=1.0, pid=2,
            attrs={"worker": 0},
        )
        run.write_text(json.dumps(epoch) + "\n" + json.dumps(shard) + "\n")
        return str(run)

    def test_report_has_no_trace_flag(self, capsys, tmp_path):
        run = self._run_record(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["report", run, "--trace"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    def test_report_still_renders_timing_table(self, capsys, tmp_path):
        run = self._run_record(tmp_path)
        assert main(["report", run]) == 0
        assert "Training time per epoch" in capsys.readouterr().out

    def test_report_on_a_two_worker_grid_run(self, capsys, tmp_path):
        """The grid workers' epoch spans reach the one run record."""
        run = str(tmp_path / "run.jsonl")
        assert main([
            "figure1", "--scale", "smoke", "--workers", "2",
            "--telemetry", run,
        ]) == 0
        assert os.listdir(tmp_path) == ["run.jsonl"]
        capsys.readouterr()
        assert main(["report", run]) == 0
        out = capsys.readouterr().out
        assert "no epoch spans" not in out
        assert "Training time per epoch" in out
        assert "Per-epoch phase breakdown" in out
        # Every span comes from the two workers, none from this process.
        pids = {r["pid"] for r in load_records(run) if r["type"] == "span"}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_profile_flag_on_subcommand(self, capsys, tmp_path):
        out_path = str(tmp_path / "prof.collapsed")
        code = main([
            "table1", "--scale", "smoke", "--profile", out_path,
        ])
        assert code == 0
        assert "sampling profile:" in capsys.readouterr().out

    def test_bench_diff_on_committed_baselines(self, capsys):
        assert main(["bench", "diff"]) == 0
        out = capsys.readouterr().out
        assert "ok: no regressions" in out

    def test_bench_diff_flags_injected_regression(self, capsys, tmp_path):
        from repro.telemetry.bench import BenchRecord

        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        BenchRecord("serving").add(
            "rps", 5000.0, unit="examples/s", direction="higher"
        ).save(str(baseline))
        BenchRecord("serving").add(
            "rps", 4000.0, unit="examples/s", direction="higher"
        ).save(str(current))
        code = main([
            "bench", "diff", str(current), "--baseline", str(baseline),
        ])
        assert code == 1
        assert "FAIL: 1 regression(s)" in capsys.readouterr().out

    def test_bench_diff_without_baselines_errors(self, capsys, tmp_path):
        assert main(
            ["bench", "diff", "--baseline", str(tmp_path / "void")]
        ) == 2
        assert "no *.bench.json" in capsys.readouterr().out


def test_import_does_not_load_scipy():
    """``src/`` imports nothing from scipy (numpy is the only declared
    dependency), so importing the CLI, as every process does, must not
    load it even where scipy is installed."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
