"""Tests for the run-record report (the ``repro report`` renderer)."""

import pytest

from repro.telemetry import build_report, render_report
from repro.telemetry.report import PHASES, EpochRow


def epoch_record(trainer="proposed", epoch=0, duration=1.0, children=None,
                 **attrs):
    return {
        "type": "span",
        "name": "epoch",
        "ts": 0.0,
        "duration": duration,
        "self": 0.0,
        "children": children or {},
        "attrs": {"trainer": trainer, "epoch": epoch, **attrs},
    }


def child(count, total):
    return {"count": count, "total": total}


class TestEpochRow:
    def test_phase_extraction(self):
        row = EpochRow(epoch_record(duration=1.0, children={
            "data": child(10, 0.1),
            "forward": child(10, 0.4),
            "forward/attack": child(10, 0.25),
            "backward": child(10, 0.2),
            "optimizer": child(10, 0.15),
        }))
        assert row.phases["data"] == pytest.approx(0.1)
        # forward excludes the nested attack time...
        assert row.phases["forward"] == pytest.approx(0.15)
        # ...which is reported as the attack phase instead.
        assert row.phases["attack"] == pytest.approx(0.25)
        assert row.phases["backward"] == pytest.approx(0.2)
        assert row.phases["optimizer"] == pytest.approx(0.15)
        # other = duration - direct children (the nested path is not direct).
        assert row.other == pytest.approx(1.0 - 0.85)

    def test_top_level_attack_counted_once(self):
        row = EpochRow(epoch_record(duration=1.0, children={
            "attack": child(5, 0.3),
        }))
        assert row.phases["attack"] == pytest.approx(0.3)
        assert row.phases["forward"] == 0.0

    def test_missing_children_are_zero(self):
        row = EpochRow(epoch_record())
        assert all(row.phases[p] == 0.0 for p in PHASES)
        assert row.other == pytest.approx(1.0)


class TestRunReport:
    def make_records(self):
        return [
            epoch_record("vanilla", 0, 1.0),
            epoch_record("vanilla", 1, 3.0),
            epoch_record("proposed", 0, 2.0),
            {"type": "event", "name": "early_stop.triggered", "ts": 0.0,
             "fields": {"epoch": 1}},
            {"type": "metrics", "ts": 0.0,
             "counters": {"attack.early_stop.retired": 64.0},
             "gauges": {"workspace.pool.hits": 30.0,
                        "workspace.pool.misses": 10.0,
                        "data.shard_cache.hits": 9.0,
                        "data.shard_cache.misses": 1.0,
                        "epochwise.cache_bytes": 4096.0},
             "histograms": {"attack.early_stop.retired_per_step": {
                 "count": 4, "total": 64.0, "min": 8.0, "max": 24.0,
                 "mean": 16.0}}},
        ]

    def test_trainers_and_time_per_epoch(self):
        report = build_report(self.make_records())
        assert report.trainers() == ["vanilla", "proposed"]
        assert report.time_per_epoch("vanilla") == pytest.approx(2.0)
        assert report.time_per_epoch("proposed") == pytest.approx(2.0)
        assert report.time_per_epoch("missing") == 0.0

    def test_render_contains_all_sections(self):
        text = build_report(self.make_records()).render()
        assert "Training time per epoch" in text
        assert "Per-epoch phase breakdown" in text
        assert "attack.early_stop.retired = 64" in text
        assert "workspace pool hit-rate: 75.0%" in text
        assert "shard cache hit-rate: 90.0%" in text
        assert "epochwise.cache_bytes = 4096" in text
        assert "early_stop.triggered epoch=1" in text
        assert "attack.early_stop.retired_per_step" in text

    def test_summary_only_render(self):
        text = build_report(self.make_records()).render(per_epoch=False)
        assert "Training time per epoch" in text
        assert "Per-epoch phase breakdown" not in text

    def test_empty_record_list(self):
        text = build_report([]).render()
        assert "no epoch spans" in text

    def test_render_report_from_jsonl_path(self, tmp_path):
        import json

        path = tmp_path / "run.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in self.make_records()) + "\n"
        )
        assert "Training time per epoch" in render_report(str(path))


class TestHealthBlock:
    def metrics_record(self, counters=None, gauges=None):
        return {"type": "metrics", "ts": 0.0,
                "counters": counters or {}, "gauges": gauges or {}}

    def test_silent_when_nothing_recorded(self):
        report = build_report([epoch_record(), self.metrics_record()])
        assert report.render_health() == ""
        assert "health:" not in report.render()

    def test_serving_pressure_line_aggregates_batchers(self):
        report = build_report([self.metrics_record(counters={
            "serving.requests": 10.0,
            "serving.classify.shed": 3.0,
            "serving.audit.shed": 1.0,
            "serving.classify.timeouts": 2.0,
        })])
        text = report.render_health()
        assert "serving: 10 request(s), 4 shed, 2 timed out" in text

    def test_shard_cache_hit_rate(self):
        report = build_report([self.metrics_record(gauges={
            "data.shard_cache.hits": 9.0,
            "data.shard_cache.misses": 1.0,
        })])
        assert "shard cache: 90.0% hit-rate" in report.render_health()

    def test_health_block_in_full_render(self):
        report = build_report([
            epoch_record(),
            self.metrics_record(counters={"serving.requests": 1.0}),
        ])
        assert "health:" in report.render()
