"""Command-line interface: regenerate any paper artefact from the shell.

Usage::

    python -m repro table1  --dataset digits --scale medium
    python -m repro figure1 --dataset fashion --scale smoke
    python -m repro figure2 --dataset digits
    python -m repro ablate  --knob step_size
    python -m repro audit   --defense proposed
    python -m repro table1  --telemetry run.jsonl
    python -m repro report  run.jsonl
    python -m repro table1  --profile prof.collapsed
    python -m repro bench diff

Artefacts are printed and optionally saved as JSON via ``--save``.
``--telemetry PATH`` records the run (spans, counters, events) as a JSONL
run record; ``repro report PATH`` renders it into the Table-I-style
per-epoch/per-phase timing summary (grid workers return their span
records to the parent, which writes them into the same run record).
``--profile PATH`` on any artefact subcommand samples all threads and
writes a collapsed-stack flamegraph profile;
``repro bench diff`` compares ``*.bench.json`` benchmark records against
the committed baselines in ``benchmarks/results/`` and fails on
regressions.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import contextlib

from .experiments import (
    ClassifierPool,
    paper_scale,
    run_figure1,
    run_figure2,
    run_reset_interval_ablation,
    run_step_size_ablation,
    run_table1,
    smoke_scale,
)
from .runtime import precision
from .telemetry import capture as tel_capture

__all__ = ["main", "build_parser"]


def _config_for(args) -> "ExperimentConfig":
    dtype = getattr(args, "dtype", "") or None
    workers = getattr(args, "workers", None) or None
    common = dict(dtype=dtype, workers=workers)
    if args.scale == "paper":
        return paper_scale(args.dataset, **common)
    if args.scale == "medium":
        return paper_scale(
            args.dataset,
            train_per_class=150,
            test_per_class=40,
            epochs=60,
            **common,
        )
    return smoke_scale(args.dataset, **common)


def _cmd_table1(args) -> int:
    result = run_table1(_config_for(args), verbose=args.verbose)
    print(result.render())
    if args.save:
        result.save(args.save)
    return 0


def _cmd_figure1(args) -> int:
    result = run_figure1(_config_for(args), verbose=args.verbose)
    print(result.render())
    if args.save:
        result.save(args.save)
    return 0


def _cmd_figure2(args) -> int:
    result = run_figure2(_config_for(args), verbose=args.verbose)
    print(result.render())
    if args.save:
        result.save(args.save)
    return 0


def _cmd_ablate(args) -> int:
    config = _config_for(args)
    runner = (
        run_step_size_ablation
        if args.knob == "step_size"
        else run_reset_interval_ablation
    )
    result = runner(config, verbose=args.verbose)
    print(result.render())
    if args.save:
        result.save(args.save)
    return 0


def _cmd_audit(args) -> int:
    """Train one defense and run the gradient-masking diagnostics on it."""
    from .eval import RobustnessEvaluator, gradient_masking_report

    config = _config_for(args)
    # The suite is built (and its specs checked) before anything trains.
    if args.attack:
        try:
            suite = RobustnessEvaluator.from_specs(
                args.attack, epsilon=config.resolved_epsilon
            )
        except (KeyError, ValueError) as exc:
            print(f"repro audit: bad --attack spec: {exc}", file=sys.stderr)
            return 2
    else:
        suite = RobustnessEvaluator.paper_suite(config.resolved_epsilon)
    pool = ClassifierPool(config, verbose=args.verbose)
    model = pool.get(args.defense).model
    x, y = pool.test_x, pool.test_y
    print(f"robust accuracy: {suite.evaluate(model, x, y)}")
    report = gradient_masking_report(
        model, x, y, epsilon=config.resolved_epsilon
    )
    print(report.render())
    return 1 if report.suspicious else 0


def _cmd_serve(args) -> int:
    """Boot the micro-batched inference + audit service (``repro serve``)."""
    from .models import build_model
    from .serving import InferenceService, ServingServer

    config = _config_for(args)
    if args.checkpoint or args.untrained:
        model = build_model(config.model, seed=config.seed)
        if args.checkpoint:
            from .utils import load_state_dict

            model.load_state_dict(load_state_dict(args.checkpoint))
            print(f"loaded checkpoint {args.checkpoint}")
    else:
        print(
            f"training {config.model} with defense {args.defense!r} "
            f"({config.epochs} epochs at {args.scale} scale)..."
        )
        pool = ClassifierPool(config, verbose=args.verbose)
        model = pool.get(args.defense).model
    service = InferenceService(
        model,
        max_batch_size=args.max_batch_size,
        queue_depth=args.queue_depth,
        timeout_s=args.timeout_s,
        cache_size=args.cache_size,
        epsilon=config.resolved_epsilon,
        name=config.model,
    )
    server = ServingServer(
        (args.host, args.port), service, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(
        f"serving {config.model} on http://{host}:{port}  "
        f"(batch<= {args.max_batch_size}, "
        f"queue<= {args.queue_depth}, cache {args.cache_size})"
    )
    print("endpoints: POST /classify  POST /audit  GET /healthz  GET /metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining in-flight requests)...")
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_report(args) -> int:
    """Render a telemetry JSONL run record into the timing report."""
    from .telemetry import build_report

    report = build_report(args.path)
    print(report.render(per_epoch=not args.summary))
    if args.csv:
        import csv

        headers, rows = report.epoch_table(digits=6)
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(headers)
            writer.writerows(rows)
        print(f"per-epoch CSV written to {args.csv}")
    return 0


def _cmd_bench_diff(args) -> int:
    """Compare fresh benchmark records against the committed baselines."""
    from .telemetry.bench import diff_records, load_bench_dir, render_diff

    baseline = load_bench_dir(args.baseline)
    if not baseline:
        print(f"no *.bench.json baseline records under {args.baseline}")
        return 2
    current = load_bench_dir(args.current or args.baseline)
    rows = diff_records(baseline, current, tolerance=args.tolerance)
    print(render_diff(rows, tolerance=args.tolerance))
    return 1 if any(row.status == "regression" for row in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce artefacts from Liu et al. (DSN-W 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--dataset", choices=("digits", "fashion"), default="digits"
        )
        p.add_argument(
            "--scale", choices=("smoke", "medium", "paper"), default="medium"
        )
        p.add_argument("--save", default="", help="JSON output path")
        p.add_argument("--verbose", action="store_true")
        p.add_argument(
            "--dtype",
            choices=("float32", "float64"),
            default="",
            help="floating precision for the whole run "
            "(default: the ambient runtime policy, float64)",
        )
        p.add_argument(
            "--telemetry",
            default="",
            metavar="PATH",
            help="record the run's telemetry (spans, counters, events) as "
            "a JSONL run record at PATH; render it with 'repro report'",
        )
        p.add_argument(
            "--profile",
            default="",
            metavar="PATH",
            help="sample every thread during the run and write a "
            "collapsed-stack (flamegraph-format) profile to PATH",
        )

    def add_workers(p):
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="grid worker processes: the sweep runs one cell per "
            "worker, each training its classifiers serially (default: "
            "the REPRO_WORKERS environment variable, else 1)",
        )

    p_table = sub.add_parser("table1", help="regenerate Table I")
    add_common(p_table)
    p_table.set_defaults(func=_cmd_table1)

    p_fig1 = sub.add_parser("figure1", help="regenerate Figure 1")
    add_common(p_fig1)
    add_workers(p_fig1)
    p_fig1.set_defaults(func=_cmd_figure1)

    p_fig2 = sub.add_parser("figure2", help="regenerate Figure 2")
    add_common(p_fig2)
    p_fig2.set_defaults(func=_cmd_figure2)

    p_abl = sub.add_parser("ablate", help="design-choice ablations")
    add_common(p_abl)
    add_workers(p_abl)
    p_abl.add_argument(
        "--knob", choices=("step_size", "reset_interval"),
        default="step_size",
    )
    p_abl.set_defaults(func=_cmd_ablate)

    p_audit = sub.add_parser(
        "audit", help="train one defense + masking diagnostics"
    )
    add_common(p_audit)
    p_audit.add_argument(
        "--defense",
        default="proposed",
        help="defense registry name (e.g. proposed, atda, bim10_adv)",
    )
    p_audit.add_argument(
        "--attack",
        action="append",
        default=None,
        metavar="SPEC",
        help="attack spec 'name:param=value,...' from the attack registry "
        "(repeatable, e.g. --attack fgsm --attack pgd:num_steps=20); "
        "default: the Table I suite (original, fgsm, bim10, bim30)",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_serve = sub.add_parser(
        "serve",
        help="serve classify/audit over HTTP with micro-batching",
    )
    add_common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    p_serve.add_argument(
        "--defense", default="vanilla",
        help="defense registry name to train the served model with",
    )
    p_serve.add_argument(
        "--checkpoint", default="",
        metavar="PATH",
        help="serve weights from a saved state dict instead of training",
    )
    p_serve.add_argument(
        "--untrained", action="store_true",
        help="skip training entirely (demo/load-testing the serving path)",
    )
    p_serve.add_argument(
        "--max-batch-size", type=int, default=32, metavar="N",
        help="micro-batch coalescing bound (1 = no coalescing)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="admission bound; beyond it requests are shed with 429",
    )
    p_serve.add_argument(
        "--timeout-s", type=float, default=30.0, metavar="S",
        help="default per-request deadline (maps to 504 when missed)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="prediction-cache entries (0 disables caching)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_report = sub.add_parser(
        "report", help="render a telemetry JSONL run record"
    )
    p_report.add_argument("path", help="JSONL run record (from --telemetry)")
    p_report.add_argument(
        "--summary",
        action="store_true",
        help="omit the per-epoch table, print only per-trainer means",
    )
    p_report.add_argument(
        "--csv", default="", metavar="PATH",
        help="also write the per-epoch phase table as CSV",
    )
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser(
        "bench", help="perf-regression tracking over *.bench.json records"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_diff = bench_sub.add_parser(
        "diff",
        help="diff benchmark records against the committed baselines",
    )
    p_diff.add_argument(
        "current", nargs="?", default="",
        help="directory of fresh *.bench.json records (default: the "
        "baseline directory itself — a self-consistency check)",
    )
    p_diff.add_argument(
        "--baseline", default="benchmarks/results", metavar="DIR",
        help="committed baseline records (default: benchmarks/results)",
    )
    p_diff.add_argument(
        "--tolerance", type=float, default=0.10, metavar="FRACTION",
        help="allowed fractional move in the worse direction before a "
        "metric counts as a regression (default: 0.10)",
    )
    p_diff.set_defaults(func=_cmd_bench_diff)

    return parser


@contextlib.contextmanager
def _profiled(path: str):
    """Sample every thread for the scope; write the collapsed stacks."""
    from .telemetry.profiler import SamplingProfiler

    profiler = SamplingProfiler()
    profiler.start()
    try:
        yield
    finally:
        profiler.stop()
        profiler.save(path)
        print(
            f"sampling profile: {profiler.samples} sample(s) at "
            f"{profiler.hz} Hz -> {path}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    dtype = getattr(args, "dtype", "")
    telemetry = getattr(args, "telemetry", "")
    profile = getattr(args, "profile", "")
    # Activate the requested precision for the whole dispatch so code paths
    # outside ClassifierPool (evaluation, audits) also run in that dtype;
    # likewise the telemetry capture wraps training AND evaluation so the
    # run record covers the full artefact regeneration.
    scope = precision(dtype) if dtype else contextlib.nullcontext()
    tel_scope = (
        tel_capture(jsonl=telemetry) if telemetry else contextlib.nullcontext()
    )
    prof_scope = _profiled(profile) if profile else contextlib.nullcontext()
    with scope, tel_scope, prof_scope:
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
