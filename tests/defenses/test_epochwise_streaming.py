"""Streamed epochwise training must equal in-memory training bit-for-bit.

The delta-store refactor and the streaming pipeline only earn their keep
if they change *nothing* about the numerics: a run that regenerates its
data shard-by-shard (SyntheticSource) must produce exactly the model an
in-memory run over the materialised same data produces, including across
a cache-reset boundary; and a byte budget must bound residency without
changing the batches.
"""

import numpy as np

from repro.data import DataLoader, SyntheticSource, TensorSource
from repro.defenses import EpochwiseAdvTrainer
from repro.models import mnist_mlp
from repro.optim import Adam

SHARD = 16
N = 64


def make_trainer(**kwargs):
    model = mnist_mlp(seed=0)
    return EpochwiseAdvTrainer(
        model,
        Adam(model.parameters(), lr=2e-3),
        epsilon=0.2,
        step_size=0.05,
        warmup_epochs=0,
        **kwargs,
    )


def stream_source(seed=11):
    return SyntheticSource(
        "digits", num_examples=N, shard_size=SHARD, seed=seed
    )


def params_of(trainer):
    return [p.data.copy() for p in trainer.model.parameters()]


class TestStreamedEqualsInMemory:
    def test_bit_for_bit_across_reset_boundary(self):
        """Same seed, same shard structure, 1 worker: streamed training
        equals in-memory training exactly.  Five epochs with
        ``reset_interval=2`` crosses two reset boundaries, so the carried
        state, the reset path and the post-reset rebuild all agree."""
        source = stream_source()
        streamed = make_trainer(reset_interval=2)
        streamed.fit(
            DataLoader(source, batch_size=16, rng=7), epochs=5
        )

        in_memory = make_trainer(reset_interval=2)
        in_memory.fit(
            DataLoader(
                TensorSource(source.materialize(), shard_size=SHARD),
                batch_size=16,
                rng=7,
            ),
            epochs=5,
        )

        for ps, pm in zip(params_of(streamed), params_of(in_memory)):
            assert np.array_equal(ps, pm)
        assert streamed.cache_size == in_memory.cache_size

    def test_shard_cache_budget_does_not_change_results(self):
        """A tight shard-cache budget only affects *residency*: shards
        are regenerable, so eviction can never change batch content and
        the trained model stays bit-for-bit identical."""
        from repro.runtime import compute_dtype

        itemsize = np.dtype(compute_dtype()).itemsize
        shard_bytes = SHARD * (28 * 28 * itemsize + 8)
        budget = 2 * shard_bytes

        unbounded = make_trainer(reset_interval=2)
        unbounded.fit(
            DataLoader(stream_source(), batch_size=16, rng=7), epochs=3
        )

        loader = DataLoader(
            stream_source(), batch_size=16, rng=7, budget_bytes=budget
        )
        bounded = make_trainer(reset_interval=2)
        bounded.fit(loader, epochs=3)

        assert loader.cache.peak_bytes <= budget
        assert loader.cache.evictions > 0
        for pb, pu in zip(params_of(bounded), params_of(unbounded)):
            assert np.array_equal(pb, pu)

    def test_delta_budget_bounds_peak_cache_bytes(self):
        """Under a small shared byte budget, both pipeline stores stay within budget for the whole run (training degrades
        gracefully — evicted examples restart from clean)."""
        from repro.runtime import compute_dtype

        itemsize = np.dtype(compute_dtype()).itemsize
        shard_bytes = SHARD * (28 * 28 * itemsize + 8)
        budget = 2 * shard_bytes

        trainer = make_trainer(
            reset_interval=2,
            delta_block_size=SHARD,
            delta_budget_bytes=budget,
        )
        loader = DataLoader(
            stream_source(), batch_size=16, rng=7, budget_bytes=budget
        )
        trainer.fit(loader, epochs=3)

        assert loader.cache.peak_bytes <= budget
        assert trainer.delta_store.peak_bytes <= budget
        assert loader.cache.evictions > 0
        assert trainer.delta_store.evictions > 0
        # The resident working set is bounded, but training still ran
        # over every example each epoch.
        assert trainer.cache_size <= 2 * SHARD

    def test_streamed_training_learns(self):
        """End-to-end sanity: a streamed epochwise run trains a usable
        classifier on data that never existed in memory at once."""
        source = stream_source()
        trainer = make_trainer(reset_interval=0)
        trainer.fit(DataLoader(source, batch_size=16, rng=0), epochs=8)
        test = source.materialize()
        accuracy = (
            trainer.model.predict(test.examples) == test.labels
        ).mean()
        assert accuracy > 0.5


class TestBudgetedRunRecord:
    def test_report_shows_shard_cache_and_delta_evictions(self, tmp_path):
        """A budgeted streamed ``proposed`` run, recorded as a JSONL run
        record, surfaces both resident stores: the report prints the
        shard-cache hit rate and the record carries delta-store
        evictions."""
        import json

        from repro import telemetry
        from repro.defenses import build_trainer
        from repro.runtime import compute_dtype
        from repro.telemetry import build_report

        itemsize = np.dtype(compute_dtype()).itemsize
        budget = 2 * SHARD * (28 * 28 * itemsize + 8)
        trainer = build_trainer(
            "proposed", mnist_mlp(seed=0), epsilon=0.2, warmup_epochs=0,
            delta_budget_bytes=budget, delta_block_size=SHARD,
        )
        loader = DataLoader(
            stream_source(), batch_size=16, rng=7, budget_bytes=budget
        )
        path = str(tmp_path / "stream.jsonl")
        with telemetry.capture(jsonl=path):
            trainer.fit(loader, epochs=2)

        assert "shard cache hit-rate:" in build_report(path).render()
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        gauges = [r for r in records if r["type"] == "metrics"][-1]["gauges"]
        assert gauges["epochwise.cache_evictions"] > 0
