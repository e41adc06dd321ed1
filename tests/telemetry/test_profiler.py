"""Sampling-profiler tests: sampling, collapsed output, span attribution."""

import time

import pytest

from repro import telemetry as tel
from repro.telemetry.profiler import DEFAULT_HZ, SamplingProfiler


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


class TestSampling:
    def test_collects_samples_while_running(self):
        with SamplingProfiler(hz=500) as profiler:
            _spin(0.2)
        assert profiler.samples > 0
        assert profiler.stacks

    def test_sample_seconds_times_the_sampler_work(self):
        profiler = SamplingProfiler(hz=500)
        assert profiler.sample_seconds == 0.0
        started = time.perf_counter()
        with profiler:
            _spin(0.1)
        wall = time.perf_counter() - started
        assert profiler.samples > 0
        assert 0.0 < profiler.sample_seconds < wall

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError, match="hz"):
            SamplingProfiler(hz=0)

    def test_default_rate_is_prime(self):
        assert DEFAULT_HZ == 29
        assert SamplingProfiler().hz == DEFAULT_HZ

    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(hz=500)
        assert profiler.start() is profiler.start()
        profiler.stop()
        profiler.stop()
        assert profiler._thread is None

    def test_samples_accumulate_across_restarts(self):
        profiler = SamplingProfiler(hz=500)
        with profiler:
            _spin(0.1)
        first = profiler.samples
        with profiler:
            _spin(0.1)
        assert profiler.samples > first


class TestCollapsedOutput:
    def test_collapsed_format_and_ordering(self):
        profiler = SamplingProfiler(hz=500)
        profiler.stacks = {("a:f", "b:g"): 5, ("a:f",): 2, ("c:h",): 5}
        lines = profiler.collapsed().splitlines()
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts, reverse=True)
        assert lines[0] == "a:f;b:g 5"  # ties break lexically
        assert lines[1] == "c:h 5"
        assert lines[2] == "a:f 2"

    def test_min_count_filters(self):
        profiler = SamplingProfiler(hz=500)
        profiler.stacks = {("a:f",): 5, ("b:g",): 1}
        assert "b:g" not in profiler.collapsed(min_count=2)

    def test_profile_catches_the_workload(self):
        with SamplingProfiler(hz=500) as profiler:
            _spin(0.3)
        assert "_spin" in profiler.collapsed()

    def test_save_writes_file(self, tmp_path):
        profiler = SamplingProfiler(hz=500)
        profiler.stacks = {("a:f",): 3}
        path = tmp_path / "out.collapsed"
        assert profiler.save(str(path)) == str(path)
        assert path.read_text() == "a:f 3\n"

    def test_top_aggregates_innermost_frames(self):
        profiler = SamplingProfiler(hz=500)
        profiler.stacks = {("a:f", "z:leaf"): 3, ("b:g", "z:leaf"): 2,
                           ("c:h",): 1}
        assert profiler.top(limit=1) == [("z:leaf", 5)]


class TestSpanAttribution:
    def test_stacks_prefixed_with_enclosing_span(self, enabled):
        with SamplingProfiler(hz=500) as profiler:
            with tel.span("hot.region"):
                _spin(0.3)
        attributed = [
            stack for stack in profiler.stacks
            if stack[0] == "span:hot.region"
        ]
        assert attributed, (
            "no sample attributed to the enclosing telemetry span"
        )

    def test_no_span_prefix_while_telemetry_disabled(self):
        with SamplingProfiler(hz=500) as profiler:
            with tel.span("ignored"):  # null span: no registry entry
                _spin(0.2)
        assert not any(
            stack[0].startswith("span:") for stack in profiler.stacks
        )
