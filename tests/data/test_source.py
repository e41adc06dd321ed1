"""Tests for shard-based data sources and the byte-budgeted shard cache."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    ShardCache,
    SyntheticSource,
    TensorDataset,
    TensorSource,
    as_source,
)


def make_dataset(n=20, width=3):
    x = np.arange(n * width, dtype=np.float64).reshape(n, width)
    y = np.arange(n, dtype=np.int64) % 4
    return TensorDataset(x, y)


class TestTensorSource:
    def test_single_shard_by_default(self):
        source = TensorSource(make_dataset(10))
        assert source.num_shards == 1
        assert source.shard_size == 10

    def test_shard_geometry(self):
        source = TensorSource(make_dataset(10), shard_size=4)
        assert source.num_shards == 3
        assert source.shard_bounds(0) == (0, 4)
        assert source.shard_bounds(2) == (8, 10)
        with pytest.raises(IndexError):
            source.shard_bounds(3)

    def test_shards_are_views(self):
        dataset = make_dataset(10)
        source = TensorSource(dataset, shard_size=4)
        x, y = source.shard(1)
        assert x.base is not None  # zero-copy slice of the backing array
        assert np.array_equal(x, dataset.examples[4:8])
        assert np.array_equal(y, dataset.labels[4:8])

    def test_concatenated_shards_cover_dataset(self):
        dataset = make_dataset(11)
        source = TensorSource(dataset, shard_size=4)
        xs = np.concatenate(
            [source.shard(s)[0] for s in range(source.num_shards)]
        )
        assert np.array_equal(xs, dataset.examples)

    def test_materialize_round_trips(self):
        dataset = make_dataset(9)
        back = TensorSource(dataset, shard_size=2).materialize()
        assert np.array_equal(back.examples, dataset.examples)
        assert np.array_equal(back.labels, dataset.labels)

    def test_invalid_shard_size(self):
        with pytest.raises(ValueError):
            TensorSource(make_dataset(4), shard_size=0)

    def test_rejects_source_input(self):
        with pytest.raises(TypeError):
            TensorSource(TensorSource(make_dataset(4)))


class TestAsSource:
    def test_wraps_dataset(self):
        source = as_source(make_dataset(6))
        assert isinstance(source, TensorSource)
        assert source.num_shards == 1

    def test_passes_source_through(self):
        source = TensorSource(make_dataset(6), shard_size=2)
        assert as_source(source) is source


class TestSyntheticSource:
    def test_shard_is_deterministic_in_seed_and_id(self):
        a = SyntheticSource("digits", num_examples=40, shard_size=16, seed=5)
        b = SyntheticSource("digits", num_examples=40, shard_size=16, seed=5)
        xa, ya = a.shard(1)
        xb, yb = b.shard(1)
        assert np.array_equal(xa, xb)
        assert np.array_equal(ya, yb)

    def test_shards_are_order_independent(self):
        """Any shard can be generated without generating its predecessors."""
        a = SyntheticSource("digits", num_examples=60, shard_size=20, seed=3)
        b = SyntheticSource("digits", num_examples=60, shard_size=20, seed=3)
        a.shard(0)
        a.shard(1)
        late_first = b.shard(2)
        assert np.array_equal(a.shard(2)[0], late_first[0])

    def test_different_seeds_differ(self):
        a = SyntheticSource("digits", num_examples=20, shard_size=20, seed=0)
        b = SyntheticSource("digits", num_examples=20, shard_size=20, seed=1)
        assert not np.array_equal(a.shard(0)[0], b.shard(0)[0])

    def test_labels_cycle_classes_by_global_index(self):
        source = SyntheticSource(
            "digits", num_examples=25, shard_size=10, seed=0
        )
        _, y = source.shard(1)
        assert np.array_equal(y, (10 + np.arange(10)) % 10)
        _, y_last = source.shard(2)
        assert len(y_last) == 5

    def test_images_in_unit_range(self):
        source = SyntheticSource(
            "fashion", num_examples=12, shard_size=12, seed=0
        )
        x, _ = source.shard(0)
        assert x.shape == (12, 1, 28, 28)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_materialize_matches_shards(self):
        source = SyntheticSource(
            "digits", num_examples=30, shard_size=8, seed=2
        )
        dataset = source.materialize()
        assert len(dataset) == 30
        x1, _ = source.shard(1)
        assert np.array_equal(dataset.examples[8:16], x1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSource("digits", num_examples=0)
        with pytest.raises(ValueError):
            SyntheticSource("digits", num_examples=8, shard_size=0)
        with pytest.raises(KeyError):
            SyntheticSource("nope", num_examples=8)


class TestShardCache:
    def payload(self, nbytes):
        return np.zeros(nbytes, dtype=np.uint8)

    def test_get_put_and_stats(self):
        cache = ShardCache()
        assert cache.get("a") is None
        cache.put("a", 1, nbytes=10)
        assert cache.get("a") == 1
        assert cache.bytes == 10
        assert cache.hits == 1 and cache.misses == 1

    def test_budget_evicts_lru(self):
        evicted = []
        cache = ShardCache(
            budget_bytes=25, on_evict=lambda k, v: evicted.append(k)
        )
        cache.put("a", 1, nbytes=10)
        cache.put("b", 2, nbytes=10)
        cache.get("a")  # bump a -> b is now LRU
        cache.put("c", 3, nbytes=10)
        assert evicted == ["b"]
        assert "a" in cache and "c" in cache
        assert cache.bytes == 20
        assert cache.evictions == 1

    def test_most_recent_entry_never_evicted(self):
        cache = ShardCache(budget_bytes=5)
        cache.put("big", 1, nbytes=100)
        assert "big" in cache  # over budget but the only (MRU) entry

    def test_reserve_frees_ahead(self):
        evicted = []
        cache = ShardCache(
            budget_bytes=30, on_evict=lambda k, v: evicted.append(k)
        )
        cache.put("a", 1, nbytes=15)
        cache.put("b", 2, nbytes=15)
        cache.reserve(15)
        assert evicted == ["a"]
        cache.put("c", 3, nbytes=15)
        assert cache.bytes == 30
        assert cache.peak_bytes <= 30

    def test_replacing_entry_updates_weight(self):
        cache = ShardCache()
        cache.put("a", 1, nbytes=10)
        cache.put("a", 2, nbytes=30)
        assert cache.bytes == 30
        assert len(cache) == 1

    def test_clear_disposes(self):
        disposed = []
        cache = ShardCache(on_evict=lambda k, v: disposed.append(k))
        cache.put("a", 1, nbytes=5)
        cache.put("b", 2, nbytes=5)
        cache.clear()
        assert sorted(disposed) == ["a", "b"]
        assert cache.bytes == 0 and len(cache) == 0

    def test_peak_bytes_tracks_high_water(self):
        cache = ShardCache()
        cache.put("a", 1, nbytes=40)
        cache.put("b", 2, nbytes=10)
        cache.clear()
        assert cache.peak_bytes == 50

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ShardCache(budget_bytes=0)

    def test_telemetry_gauges(self):
        cache = ShardCache()
        cache.put("a", 1, nbytes=7)
        gauges = cache.telemetry_gauges()
        assert gauges["data.shard_cache.bytes"] == 7
        assert gauges["data.shard_cache.entries"] == 1
        assert gauges["data.shard_cache.evictions"] == 0


class TestLoaderShardCacheIntegration:
    def test_budget_bounds_resident_bytes_across_passes(self):
        shard_bytes = 16 * 28 * 28 * 8 + 16 * 8
        budget = 2 * shard_bytes
        loader = DataLoader(
            SyntheticSource("digits", num_examples=96, shard_size=16, seed=0),
            batch_size=16,
            rng=0,
            budget_bytes=budget,
            prefetch=False,
        )
        for _ in range(2):
            for _batch in loader:
                pass
        assert loader.cache.peak_bytes <= budget
        assert loader.cache.evictions > 0

    def test_unbounded_cache_holds_every_shard(self):
        loader = DataLoader(
            SyntheticSource("digits", num_examples=64, shard_size=16, seed=0),
            batch_size=16,
            rng=0,
            prefetch=False,
        )
        for _batch in loader:
            pass
        assert len(loader.cache) == 4
        assert loader.cache.evictions == 0
