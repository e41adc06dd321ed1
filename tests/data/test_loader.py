"""Tests for the DataLoader."""

import numpy as np
import pytest

from repro.data import DataLoader, TensorDataset


def make_dataset(n=10):
    x = np.arange(n, dtype=np.float64).reshape(n, 1)
    y = np.arange(n)
    return TensorDataset(x, y)


class TestBatching:
    def test_batch_sizes(self):
        loader = DataLoader(make_dataset(10), batch_size=4, shuffle=False)
        sizes = [len(b.x) for b in loader]
        assert sizes == [4, 4, 2]

    def test_drop_last(self):
        loader = DataLoader(
            make_dataset(10), batch_size=4, shuffle=False, drop_last=True
        )
        sizes = [len(b.x) for b in loader]
        assert sizes == [4, 4]

    def test_len(self):
        assert len(DataLoader(make_dataset(10), batch_size=4)) == 3
        assert len(DataLoader(make_dataset(10), batch_size=4, drop_last=True)) == 2
        assert len(DataLoader(make_dataset(8), batch_size=4)) == 2

    def test_covers_all_examples(self):
        loader = DataLoader(make_dataset(13), batch_size=5, rng=0)
        seen = np.concatenate([b.y for b in loader])
        assert sorted(seen) == list(range(13))

    def test_unshuffled_order(self):
        loader = DataLoader(make_dataset(6), batch_size=3, shuffle=False)
        first = next(iter(loader))
        assert np.array_equal(first.y, [0, 1, 2])


class TestIndices:
    def test_indices_match_examples(self):
        """batch.indices must identify each row's dataset position —
        the proposed defense's adversarial cache depends on it."""
        ds = make_dataset(10)
        loader = DataLoader(ds, batch_size=3, rng=1)
        for batch in loader:
            for row, index in enumerate(batch.indices):
                assert batch.x[row, 0] == ds.examples[index, 0]

    def test_indices_are_a_permutation_each_epoch(self):
        loader = DataLoader(make_dataset(9), batch_size=4, rng=0)
        for _pass in range(2):
            indices = np.concatenate([b.indices for b in loader])
            assert sorted(indices) == list(range(9))


class TestShuffling:
    def test_reshuffles_between_passes(self):
        loader = DataLoader(make_dataset(50), batch_size=50, rng=0)
        order1 = next(iter(loader)).y.copy()
        order2 = next(iter(loader)).y.copy()
        assert not np.array_equal(order1, order2)

    def test_seeded_reproducibility(self):
        l1 = DataLoader(make_dataset(20), batch_size=20, rng=3)
        l2 = DataLoader(make_dataset(20), batch_size=20, rng=3)
        assert np.array_equal(next(iter(l1)).y, next(iter(l2)).y)


class TestValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_dataset(5), batch_size=0)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            DataLoader(TensorDataset(np.zeros((0, 1)), np.zeros(0)))


class TestPrefetchTracing:
    def test_prefetch_span_reaches_the_sink(self):
        """The producer thread records its own span while the consumer
        has telemetry on."""
        from repro import telemetry as tel

        sink = tel.InMemorySink()
        previous = tel.set_enabled(True)
        tel.add_sink(sink)
        try:
            loader = DataLoader(
                make_dataset(12), batch_size=4, shuffle=False, prefetch=True
            )
            with tel.span("epoch", emit=True):
                for _batch in loader:
                    pass
        finally:
            tel.remove_sink(sink)
            tel.set_enabled(previous)
            tel.reset_metrics()
        (prefetch,) = sink.spans("data.prefetch")
        assert prefetch["attrs"]["batches"] == 3
        assert prefetch["thread"] == "repro-data-prefetch"

    def test_prefetch_thread_records_nothing_while_disabled(self):
        from repro import telemetry as tel

        sink = tel.InMemorySink()
        tel.add_sink(sink)
        try:
            loader = DataLoader(
                make_dataset(8), batch_size=4, shuffle=False, prefetch=True
            )
            for _batch in loader:
                pass
        finally:
            tel.remove_sink(sink)
        assert sink.spans() == []
