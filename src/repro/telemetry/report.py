"""Render a telemetry run record into the Table-I-style timing report.

``repro report run.jsonl`` turns the JSONL event stream captured with
``--telemetry`` into two artefacts:

* a **per-epoch table** — one row per ``epoch`` span with the wall-clock
  total broken into the data / attack / forward / backward / optimizer
  phases (forward excludes the attack time nested inside it);
* a **per-trainer summary** — mean seconds per epoch per trainer (the
  paper's Table I efficiency metric) with mean phase costs, plus the
  attack-loop, workspace-pool and data counters captured in the
  end-of-run metrics snapshot.

Rows are keyed on the trainer plus the :data:`KNOBS` its epoch spans
carry, so the cells of an ablation sweep (one trainer, several settings)
get one summary row each instead of one averaged row.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .sinks import load_records

__all__ = ["EpochRow", "RunReport", "build_report", "render_report"]

PHASES = ("data", "attack", "forward", "backward", "optimizer")

#: Epoch-span attributes that tell runs of one trainer apart: the knobs
#: the ablations sweep (see ``Trainer.epoch_attrs``).
KNOBS = ("reset_interval", "step_size")


def _knob_cell(value) -> str:
    return "-" if value is None else f"{value:g}"


def _format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
        )
    return "\n".join(lines)


class EpochRow:
    """Phase breakdown of one ``epoch`` span record."""

    __slots__ = (
        "trainer", "epoch", "total", "phases", "other", "attrs", "knobs",
    )

    def __init__(self, record: dict) -> None:
        attrs = record.get("attrs", {})
        self.trainer = str(attrs.get("trainer", "?"))
        self.epoch = attrs.get("epoch")
        #: One value per :data:`KNOBS` entry; ``None`` where the span
        #: lacks that attribute.
        self.knobs: Tuple = tuple(attrs.get(k) for k in KNOBS)
        self.total = float(record.get("duration", 0.0))
        self.attrs = attrs
        children = record.get("children", {})

        def total_of(path: str) -> float:
            entry = children.get(path)
            return float(entry["total"]) if entry else 0.0

        # Attack time may be nested inside the forward phase (mixture
        # trainers craft the adversarial half while computing the batch
        # loss) or recorded at the top level; count each occurrence once.
        attack = sum(
            float(entry["total"])
            for path, entry in children.items()
            if path == "attack" or path.endswith("/attack")
        )
        self.phases: Dict[str, float] = {
            "data": total_of("data"),
            "attack": attack,
            "forward": total_of("forward") - total_of("forward/attack"),
            "backward": total_of("backward"),
            "optimizer": total_of("optimizer"),
        }
        direct = sum(
            float(entry["total"])
            for path, entry in children.items()
            if "/" not in path
        )
        self.other = max(self.total - direct, 0.0)


class RunReport:
    """Parsed run record: epoch rows plus the metrics snapshot."""

    def __init__(self, records: Sequence[dict]) -> None:
        self.records = list(records)
        self.epochs: List[EpochRow] = [
            EpochRow(r) for r in self.records
            if r.get("type") == "span" and r.get("name") == "epoch"
        ]
        self.metrics: dict = {}
        for record in reversed(self.records):
            if record.get("type") == "metrics":
                self.metrics = record
                break
        self.events: List[dict] = [
            r for r in self.records if r.get("type") == "event"
        ]

    # ------------------------------------------------------------------
    def trainers(self) -> List[str]:
        """Trainer names in first-seen order."""
        return list(dict.fromkeys(row.trainer for row in self.epochs))

    def keys(self) -> List[Tuple]:
        """Summary-row keys ``(trainer, knobs)``, in first-seen order."""
        return list(dict.fromkeys(
            (row.trainer, row.knobs) for row in self.epochs
        ))

    def _knob_columns(self) -> List[int]:
        """Indices of the :data:`KNOBS` some epoch row carries."""
        return [
            index for index in range(len(KNOBS))
            if any(row.knobs[index] is not None for row in self.epochs)
        ]

    def epochs_for(self, trainer: str, **knobs) -> List[EpochRow]:
        """The epoch rows of ``trainer`` whose attributes match ``knobs``."""
        return [
            row for row in self.epochs
            if row.trainer == trainer
            and all(row.attrs.get(k) == v for k, v in knobs.items())
        ]

    def time_per_epoch(self, trainer: str, **knobs) -> float:
        """Mean seconds per epoch for ``trainer`` — the Table I metric."""
        rows = self.epochs_for(trainer, **knobs)
        if not rows:
            return 0.0
        return sum(row.total for row in rows) / len(rows)

    # ------------------------------------------------------------------
    def epoch_table(self, digits: int = 4) -> Tuple[List[str], List[List]]:
        """Headers and cells of the per-epoch phase table (also the CSV)."""
        columns = self._knob_columns()
        headers = ["trainer", *(KNOBS[i] for i in columns), "epoch",
                   "total_s", *[f"{p}_s" for p in PHASES], "other_s"]
        rows = []
        for row in self.epochs:
            cells = [row.trainer, *(_knob_cell(row.knobs[i]) for i in columns),
                     str(row.epoch), f"{row.total:.{digits}f}"]
            cells.extend(f"{row.phases[p]:.{digits}f}" for p in PHASES)
            cells.append(f"{row.other:.{digits}f}")
            rows.append(cells)
        return headers, rows

    def render_per_epoch(self) -> str:
        """One row per epoch with the per-phase wall-clock breakdown."""
        headers, rows = self.epoch_table()
        return _format_table(headers, rows, title="Per-epoch phase breakdown")

    def render_summary(self) -> str:
        """Table-I-style mean epoch cost with phase means, one row per key."""
        columns = self._knob_columns()
        headers = ["trainer", *(KNOBS[i] for i in columns), "epochs",
                   "s/epoch", *[f"{p}_s" for p in PHASES]]
        rows = []
        for trainer, knobs in self.keys():
            epoch_rows = self.epochs_for(trainer, **dict(zip(KNOBS, knobs)))
            n = len(epoch_rows)
            mean_total = sum(row.total for row in epoch_rows) / n
            cells = [trainer, *(_knob_cell(knobs[i]) for i in columns),
                     str(n), f"{mean_total:.4f}"]
            for phase in PHASES:
                mean = sum(r.phases[phase] for r in epoch_rows) / n
                cells.append(f"{mean:.4f}")
            rows.append(cells)
        return _format_table(
            headers, rows,
            title="Training time per epoch (telemetry run record)",
        )

    def render_health(self) -> str:
        """The neglected operational counters, surfaced in one block.

        Serving shed/timeout counts and the shard-cache hit rate each
        indicate capacity pressure that the timing tables hide; returns
        ``""`` when the run recorded none of them (un-served,
        non-streaming runs stay clean).
        """
        counters = self.metrics.get("counters", {})
        gauges = self.metrics.get("gauges", {})
        lines = []
        shed = sum(
            value for name, value in counters.items()
            if name.startswith("serving.") and name.endswith(".shed")
        )
        timeouts = sum(
            value for name, value in counters.items()
            if name.startswith("serving.") and name.endswith(".timeouts")
        )
        requests = counters.get("serving.requests", 0.0)
        if shed or timeouts or requests:
            lines.append(
                f"  serving: {requests:g} request(s), "
                f"{shed:g} shed, {timeouts:g} timed out"
            )
        sc_hits = gauges.get("data.shard_cache.hits", 0.0)
        sc_misses = gauges.get("data.shard_cache.misses", 0.0)
        if sc_hits or sc_misses:
            rate = sc_hits / (sc_hits + sc_misses)
            lines.append(
                f"  shard cache: {rate:.1%} hit-rate "
                f"({sc_hits:g} hit(s) / {sc_misses:g} miss(es))"
            )
        if not lines:
            return ""
        return "\n".join(["health:"] + lines)

    def render_counters(self) -> str:
        """Attack-loop / workspace / data counters from the metrics record."""
        counters = dict(self.metrics.get("counters", {}))
        gauges = dict(self.metrics.get("gauges", {}))
        lines = []
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                lines.append(f"  {name} = {counters[name]:g}")
        if gauges:
            lines.append("gauges:")
            for name in sorted(gauges):
                lines.append(f"  {name} = {gauges[name]:g}")
        hits = gauges.get("workspace.pool.hits", 0.0)
        misses = gauges.get("workspace.pool.misses", 0.0)
        if hits or misses:
            rate = hits / (hits + misses) if (hits + misses) else 0.0
            lines.append(f"workspace pool hit-rate: {rate:.1%}")
        sc_hits = gauges.get("data.shard_cache.hits", 0.0)
        sc_misses = gauges.get("data.shard_cache.misses", 0.0)
        if sc_hits or sc_misses:
            rate = sc_hits / (sc_hits + sc_misses)
            lines.append(f"shard cache hit-rate: {rate:.1%}")
        histograms = self.metrics.get("histograms", {})
        if histograms:
            lines.append("histograms:")
            for name in sorted(histograms):
                h = histograms[name]
                line = (
                    f"  {name}: count={h['count']} mean={h['mean']:.3f} "
                    f"min={h['min']:g} max={h['max']:g}"
                )
                # Older run records predate the streaming quantiles.
                if "p50" in h:
                    line += (
                        f" p50={h['p50']:.3f} p90={h['p90']:.3f} "
                        f"p99={h['p99']:.3f}"
                    )
                lines.append(line)
        return "\n".join(lines)

    def render(self, per_epoch: bool = True) -> str:
        """The full report (summary, optional per-epoch table, counters)."""
        parts = []
        if self.epochs:
            parts.append(self.render_summary())
            if per_epoch:
                parts.append(self.render_per_epoch())
        else:
            parts.append("no epoch spans in this run record")
        health = self.render_health()
        if health:
            parts.append(health)
        counters = self.render_counters()
        if counters:
            parts.append(counters)
        if self.events:
            lines = ["events:"]
            for record in self.events:
                fields = " ".join(
                    f"{k}={v}" for k, v in record.get("fields", {}).items()
                )
                lines.append(f"  {record['name']} {fields}".rstrip())
            parts.append("\n".join(lines))
        return "\n\n".join(parts)


def build_report(source) -> RunReport:
    """Build a :class:`RunReport` from a JSONL path or a record list."""
    if isinstance(source, (str, bytes)):
        return RunReport(load_records(source))
    return RunReport(source)


def render_report(source, per_epoch: bool = True) -> str:
    """Convenience: load + render in one call (the ``repro report`` body)."""
    return build_report(source).render(per_epoch=per_epoch)
