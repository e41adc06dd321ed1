"""Telemetry cost: primitive-op benchmarks and the disabled-overhead gate.

Telemetry ships **disabled**, so the cost that matters is what the
instrumentation adds to the hot training loop while off: a ``span()`` call
that returns the shared null singleton, and ``tel.enabled()`` checks that
early-out.  ``test_telemetry_disabled_overhead`` measures those primitive
costs, multiplies by the number of instrumentation sites one epochwise-adv
training epoch executes, and gates the estimated overhead at <2% of the
measured epoch time (the ISSUE acceptance bound).  The estimate is the
honest comparison: the un-instrumented baseline no longer exists in-tree,
and an A/B against it would measure run-to-run noise, not the ~100ns/site
the null path actually costs.

The enabled-mode epoch is also timed (not gated — recording is expected to
cost something) and the full comparison saved to
``benchmarks/results/telemetry_overhead.txt``.
"""

import math
import time

import pytest

from conftest import save_artifact, save_bench
from repro import telemetry as tel
from repro.data import DataLoader, load_dataset
from repro.defenses import build_trainer
from repro.models import mnist_mlp
from repro.runtime import precision


def _make_loader():
    with precision("float64"):
        train, _ = load_dataset(
            "digits", train_per_class=50, test_per_class=1, seed=0
        )
        return DataLoader(train, batch_size=128, rng=0)


@pytest.fixture(scope="module")
def loader():
    return _make_loader()


def _epoch(loader):
    """One epochwise-adv (proposed) training epoch — the gated workload."""
    with precision("float64"):
        model = mnist_mlp(seed=0)
        trainer = build_trainer("proposed", model, epsilon=0.25, lr=1e-3)
        trainer.train_epoch(loader)


# ----------------------------------------------------------------------
# Primitive-op benchmarks.
# ----------------------------------------------------------------------

@pytest.mark.benchmark(group="telemetry-ops")
def test_disabled_span_op(benchmark):
    """The null-span fast path every instrumented site pays while off."""
    assert not tel.enabled()

    def op():
        with tel.span("bench"):
            pass

    benchmark(op)


@pytest.mark.benchmark(group="telemetry-ops")
def test_disabled_counter_op(benchmark):
    assert not tel.enabled()
    benchmark(tel.counter, "bench")


@pytest.mark.benchmark(group="telemetry-ops")
def test_enabled_nested_span_op(benchmark):
    """A real child span: stopwatch + stack push/pop + parent fold."""
    previous = tel.set_enabled(True)

    def op():
        with tel.span("parent", emit=False):
            with tel.span("child"):
                pass

    try:
        benchmark(op)
    finally:
        tel.set_enabled(previous)


@pytest.mark.benchmark(group="telemetry-ops")
def test_enabled_counter_op(benchmark):
    previous = tel.set_enabled(True)
    try:
        benchmark(tel.counter, "bench")
    finally:
        tel.set_enabled(previous)
        tel.reset_metrics()


# ----------------------------------------------------------------------
# The disabled-mode overhead gate.
# ----------------------------------------------------------------------

def _primitive_cost(op, calls=100_000):
    start = time.perf_counter()
    for _ in range(calls):
        op()
    return (time.perf_counter() - start) / calls


def test_telemetry_disabled_overhead(loader):
    """Disabled-mode instrumentation must cost <2% of an adv-training epoch.

    Sites one epochwise-adv epoch executes while telemetry is off:

    * per batch — 4 phase spans (``data``/``forward``/``backward``/
      ``optimizer``), 1 ``attack`` span, and 1 ``tel.enabled()`` check in
      the loader;
    * per epoch — the ``epoch`` span and the workspace-gauge
      ``tel.enabled()`` check (the span lives in ``fit``, so it is an
      upper bound for a bare ``train_epoch``).
    """
    assert not tel.enabled(), "gate must run with telemetry off"

    def null_span():
        with tel.span("bench"):
            pass

    span_cost = _primitive_cost(null_span)
    check_cost = _primitive_cost(tel.enabled)

    # Measured epoch time of the instrumented loop, telemetry disabled.
    _epoch(loader)  # warm caches / BLAS threads
    t_disabled = min(_timed_epoch(loader) for _ in range(3))

    batches = len(loader)
    spans = 5 * batches + 1
    checks = batches + 1
    est_overhead = spans * span_cost + checks * check_cost
    fraction = est_overhead / t_disabled

    # Enabled-mode comparison, for the artifact only (recording costs are
    # allowed; only the always-on disabled path is gated).
    previous = tel.set_enabled(True)
    try:
        tel.reset_metrics()
        t_enabled = min(_timed_epoch(loader) for _ in range(3))
    finally:
        tel.set_enabled(previous)
        tel.reset_metrics()

    lines = [
        "telemetry overhead: epochwise-adv MLP epoch, digits, float64",
        f"epoch (telemetry disabled): {t_disabled * 1000:8.2f} ms",
        f"epoch (telemetry enabled):  {t_enabled * 1000:8.2f} ms "
        f"({t_enabled / t_disabled:.3f}x)",
        f"null span: {span_cost * 1e9:6.0f} ns/site   "
        f"enabled() check: {check_cost * 1e9:6.0f} ns/site",
        f"disabled sites/epoch: {spans} spans + {checks} checks "
        f"-> {est_overhead * 1e6:.1f} us/epoch",
        f"disabled overhead: {fraction:.4%} of epoch  (gate < 2%)",
    ]
    text = "\n".join(lines)
    path = save_artifact("telemetry_overhead.txt", text)
    save_bench(
        "telemetry_overhead",
        {
            # Near-zero fractions diff terribly in relative terms (noise
            # swamps them), so the hard bounds live in this test's asserts
            # and the records are trajectory data, not diff gates.
            "disabled_overhead_fraction": (fraction, "fraction", None),
            "enabled_ratio": (t_enabled / t_disabled, "x", None),
            "epoch_ms": (t_disabled * 1000.0, "ms", None),
        },
        context={"workload": "epochwise-adv MLP epoch, digits, float64"},
    )
    print(f"\n{text}\nsaved: {path}")
    assert fraction < 0.02, (
        f"disabled-mode telemetry estimated at {fraction:.2%} of an "
        "epochwise-adv epoch (gate < 2%)"
    )


# A timed round must span this many sampler periods (see below).
MIN_SAMPLER_PERIODS = 15


def test_profiler_overhead(loader):
    """The sampling profiler must cost <5% at the default rate.

    A/B at ``DEFAULT_HZ``, with bare and profiled rounds **interleaved**
    (bare, profiled, bare, profiled, ...) so slow drift on a shared box
    hits both sides equally; the gate compares the best round of each.
    A round times a fixed block of epochs, sized from the fastest of
    three warm epochs to span at least ``MIN_SAMPLER_PERIODS`` sampler
    periods: a single
    ~80 ms epoch catches only 2-3 samples at 29 Hz, so one late sample
    or a scheduler hiccup swung the ratio by more than the gate.
    Unlike the disabled-telemetry estimate, this really is measurable
    A/B — the sampler is a separate thread and its cost (GIL grabs
    during ``sys._current_frames``) shows up directly in the epoch wall
    clock.  Also asserts the profile itself is usable: non-empty
    collapsed stacks that caught the training loop in the act.
    """
    from repro.telemetry.profiler import SamplingProfiler

    _epoch(loader)  # warm caches / BLAS threads
    profiler = SamplingProfiler()
    t_epoch = min(_timed_epoch(loader) for _ in range(3))
    epochs = math.ceil(MIN_SAMPLER_PERIODS / (profiler.hz * t_epoch))
    bare_times, profiled_times = [], []
    for _ in range(5):
        bare_times.append(_timed_epoch(loader, epochs))
        profiler.start()
        profiled_times.append(_timed_epoch(loader, epochs))
        profiler.stop()
    t_bare = min(bare_times)
    t_profiled = min(profiled_times)

    overhead = t_profiled / t_bare - 1.0
    collapsed = profiler.collapsed()
    lines = [
        "sampling profiler overhead: epochwise-adv MLP epoch, digits",
        f"round: {epochs} epochs, best of 5 interleaved rounds each",
        f"epoch (bare):      {t_bare / epochs * 1000:8.2f} ms",
        f"epoch (profiled):  {t_profiled / epochs * 1000:8.2f} ms "
        f"({overhead:+.2%}, gate < 5%)",
        f"samples: {profiler.samples}  distinct stacks: "
        f"{len(profiler.stacks)}  rate: {profiler.hz} Hz",
    ]
    text = "\n".join(lines)
    path = save_artifact("profiler_overhead.txt", text)
    save_bench(
        "profiler_overhead",
        {
            "overhead_fraction": (max(overhead, 0.0), "fraction", None),
            "samples": (profiler.samples, "samples", None),
        },
        context={"hz": profiler.hz},
    )
    print(f"\n{text}\nsaved: {path}")
    assert profiler.samples > 0, "sampler never fired"
    assert collapsed, "profiler produced no collapsed stacks"
    assert "train_epoch" in collapsed, (
        "profile never caught the training loop"
    )
    # Negative readings are timing noise in the bare measurement.
    assert overhead < 0.05, (
        f"profiler added {overhead:.2%} to an epoch (gate < 5%)"
    )


def _timed_epoch(loader, epochs=1):
    start = time.perf_counter()
    for _ in range(epochs):
        _epoch(loader)
    return time.perf_counter() - start
