"""Distributed-trace tests: identity, header codec, collector."""

import os

import pytest

from repro import telemetry as tel
from repro.telemetry.trace import (
    TraceCollector,
    format_trace_header,
    parse_trace_header,
    render_trace,
)


class TestHeaderCodec:
    def test_round_trip(self):
        ctx = tel.TraceContext("00ff00ff00ff00ff", "0123456789abcdef")
        assert parse_trace_header(format_trace_header(ctx)) == ctx

    @pytest.mark.parametrize("value", [
        None, "", "justone", "a-b-c", "nothex-0123456789abcdef",
        "0123456789abcdef-nothex", "-0123456789abcdef",
    ])
    def test_malformed_values_yield_none(self, value):
        assert parse_trace_header(value) is None

    def test_surrounding_whitespace_tolerated(self):
        ctx = parse_trace_header("  aa-bb \n")
        assert ctx == tel.TraceContext("aa", "bb")


class TestTraceIdentity:
    def test_root_span_mints_ids(self, enabled, memory_sink):
        with tel.span("root"):
            pass
        (record,) = memory_sink.records
        assert len(record["trace_id"]) == 16
        assert len(record["span_id"]) == 16
        assert record["parent_id"] is None
        assert record["pid"] == os.getpid()

    def test_family_shares_trace_id_and_parents_correctly(
        self, enabled, memory_sink
    ):
        with tel.span("root"):
            with tel.span("child", emit=True):
                pass
        child, root = memory_sink.records
        assert child["trace_id"] == root["trace_id"]
        assert child["parent_id"] == root["span_id"]

    def test_non_emitting_ancestor_is_skipped_in_parent_chain(
        self, enabled, memory_sink
    ):
        # The middle span never emits a record, so parenting on it would
        # dangle; the grandchild must parent on the root instead.
        with tel.span("root"):
            with tel.span("middle"):
                with tel.span("leaf", emit=True):
                    pass
        leaf, root = memory_sink.records
        assert leaf["name"] == "leaf"
        assert leaf["parent_id"] == root["span_id"]

    def test_remote_context_adopted_by_new_roots(self, enabled, memory_sink):
        remote = tel.TraceContext("feedfacefeedface", "cafebabecafebabe")
        with tel.trace_context(remote):
            with tel.span("work"):
                pass
        (record,) = memory_sink.records
        assert record["trace_id"] == remote.trace_id
        assert record["parent_id"] == remote.span_id

    def test_trace_context_none_is_a_noop(self, enabled, memory_sink):
        with tel.trace_context(None):
            with tel.span("work"):
                pass
        (record,) = memory_sink.records
        assert record["parent_id"] is None

    def test_current_context_prefers_nearest_emitting_span(self, enabled):
        assert tel.current_context() is None
        with tel.span("root") as root:
            with tel.span("middle"):  # emit=None nested: never emits
                ctx = tel.current_context()
                assert ctx.span_id == root.span_id
        assert tel.current_context() is None

    def test_current_context_falls_back_to_remote(self, enabled):
        remote = tel.TraceContext("aa" * 8, "bb" * 8)
        with tel.trace_context(remote):
            assert tel.current_context() == remote

    def test_disabled_mode_has_no_context(self):
        with tel.span("ignored"):
            assert tel.current_context() is None


def _span_record(name, trace_id, span_id, parent_id, ts, duration,
                 pid=1234, **attrs):
    return {
        "type": "span", "name": name, "trace_id": trace_id,
        "span_id": span_id, "parent_id": parent_id, "ts": ts,
        "duration": duration, "pid": pid, "thread": "MainThread",
        "attrs": attrs, "children": {},
    }


class TestCollector:
    def test_only_traced_span_records_participate(self):
        collector = TraceCollector([
            {"type": "metrics", "counters": {}},
            {"type": "span", "name": "legacy"},  # pre-trace record
            _span_record("a", "t1", "s1", None, 0.0, 1.0),
        ])
        assert len(collector.spans) == 1

    def test_traces_group_and_order_by_start(self):
        collector = TraceCollector([
            _span_record("late", "t1", "s2", None, 5.0, 1.0),
            _span_record("early", "t1", "s1", None, 1.0, 1.0),
            _span_record("other", "t2", "s3", None, 0.0, 1.0),
        ])
        groups = collector.traces()
        assert set(groups) == {"t1", "t2"}
        assert [s["name"] for s in groups["t1"]] == ["early", "late"]
        assert collector.trace_ids() == ["t2", "t1"]

    def test_render_tree_indents_children_and_counts_processes(self):
        collector = TraceCollector([
            _span_record("epoch", "t1", "root", None, 0.0, 2.0, pid=100),
            _span_record("shard", "t1", "w1", "root", 0.5, 1.0,
                         pid=200, worker=0),
            _span_record("shard", "t1", "w2", "root", 0.5, 1.0,
                         pid=300, worker=1),
        ])
        text = collector.render_one("t1")
        assert "3 span(s), 3 process(es)" in text
        lines = text.splitlines()
        assert "epoch" in lines[1]
        assert "    shard [worker=0]" in lines[2]  # indented child
        assert "|" in lines[1] and "#" in lines[1]  # waterfall bar

    def test_orphan_parent_surfaces_at_top_level(self):
        collector = TraceCollector([
            _span_record("child", "t1", "s1", "not-collected", 0.0, 1.0),
        ])
        text = collector.render_one("t1")
        assert "child" in text

    def test_render_matches_id_prefix(self):
        collector = TraceCollector([
            _span_record("a", "abcd1234", "s1", None, 0.0, 1.0),
        ])
        assert "trace abcd1234" in collector.render("abc")
        assert "no trace matching" in collector.render("ffff")

    def test_render_without_spans_explains(self):
        assert "no traced spans" in TraceCollector().render()

    def test_render_trace_accepts_record_lists(self):
        records = [_span_record("a", "t1", "s1", None, 0.0, 1.0)]
        assert "trace t1" in render_trace(records)


class TestEndToEndCapture:
    def test_capture_produces_one_merged_trace(self, tmp_path):
        """A traced region with nested emitting spans is one trace."""
        run = str(tmp_path / "run.jsonl")
        with tel.capture(jsonl=run):
            with tel.span("epoch", emit=True, trainer="proposed"):
                with tel.span("forward", emit=True):
                    pass
        collector = TraceCollector.from_run(run)
        assert len(collector.trace_ids()) == 1
        text = render_trace(run)
        assert "epoch" in text and "forward" in text
