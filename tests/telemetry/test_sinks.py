"""Tests for telemetry sinks: in-memory, JSONL round-trip, console, summary."""

import io
import json

import pytest

from repro import telemetry as tel
from repro.telemetry import (
    ConsoleEvents,
    InMemorySink,
    JsonlSink,
    load_records,
)


class TestInMemorySink:
    def test_filters_by_type_and_name(self):
        sink = InMemorySink()
        sink.emit({"type": "span", "name": "epoch"})
        sink.emit({"type": "span", "name": "eval.cell"})
        sink.emit({"type": "event", "name": "checkpoint.saved"})
        sink.emit({"type": "metrics", "counters": {}})
        assert len(sink.spans()) == 2
        assert len(sink.spans("epoch")) == 1
        assert len(sink.events()) == 1
        assert sink.metrics() == {"type": "metrics", "counters": {}}

    def test_clear(self):
        sink = InMemorySink()
        sink.emit({"type": "event", "name": "x"})
        sink.clear()
        assert sink.records == []


class TestJsonlRoundTrip:
    def test_records_survive_write_and_load(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with tel.capture(jsonl=path):
            with tel.span("epoch", emit=True, trainer="vanilla", epoch=0) as s:
                with tel.span("forward"):
                    pass
                s.note(loss=0.5)
            tel.counter("data.batches", 3)
            tel.event("checkpoint.saved", epoch=0, path="best.npz")
        records = load_records(path)
        kinds = [r["type"] for r in records]
        assert kinds.count("span") == 1
        assert kinds.count("event") == 1
        assert kinds[-1] == "metrics"  # snapshot is appended on scope exit
        span = next(r for r in records if r["type"] == "span")
        assert span["name"] == "epoch"
        assert span["attrs"] == {"trainer": "vanilla", "epoch": 0, "loss": 0.5}
        assert span["children"]["forward"]["count"] == 1
        metrics = records[-1]
        assert metrics["counters"]["data.batches"] == 3.0

    def test_stream_target_is_not_closed(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit({"type": "event", "name": "x", "fields": {}})
        sink.close()
        assert not stream.closed
        assert json.loads(stream.getvalue())["name"] == "x"

    def test_non_serialisable_values_fall_back_to_str(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        sink = JsonlSink(path)
        sink.emit({"type": "event", "name": "x", "fields": {"obj": object()}})
        sink.close()
        [record] = load_records(path)
        assert record["fields"]["obj"].startswith("<object object")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type": "event", "name": "a"}\n\n')
        assert len(load_records(str(path))) == 1

    def test_truncated_final_line_is_dropped(self, tmp_path):
        """A SIGKILLed writer leaves a torn last line; loading tolerates it."""
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"type": "span", "name": "a"}\n'
            '{"type": "span", "name": "b"}\n'
            '{"type": "span", "na'  # killed mid-write
        )
        records = load_records(str(path))
        assert [r["name"] for r in records] == ["a", "b"]

    def test_corrupt_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"type": "span", "name": "a"}\n'
            "not json at all\n"
            '{"type": "span", "name": "b"}\n'
        )
        with pytest.raises(json.JSONDecodeError):
            load_records(str(path))

    def test_every_record_is_flushed_immediately(self, tmp_path):
        """Crash-safety: records must hit the file before close()."""
        path = str(tmp_path / "run.jsonl")
        sink = JsonlSink(path)
        try:
            sink.emit({"type": "event", "name": "x", "fields": {}})
            assert len(load_records(path)) == 1
        finally:
            sink.close()


class TestConsoleEvents:
    def test_prints_selected_events(self):
        stream = io.StringIO()
        sink = ConsoleEvents(("checkpoint.saved",), stream=stream)
        sink.emit({
            "type": "event", "name": "checkpoint.saved",
            "fields": {"epoch": 2, "kind": "best"},
        })
        sink.emit({"type": "event", "name": "ignored.event", "fields": {}})
        sink.emit({"type": "span", "name": "epoch"})
        output = stream.getvalue()
        assert output == "[telemetry] checkpoint.saved epoch=2 kind=best\n"

    def test_no_filter_prints_all_events(self):
        stream = io.StringIO()
        sink = ConsoleEvents(stream=stream)
        sink.emit({"type": "event", "name": "anything", "fields": {}})
        assert "anything" in stream.getvalue()
