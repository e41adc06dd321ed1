"""Macrobenchmark: streamed epochwise training vs the in-memory path.

The streaming pipeline regenerates clean shards on demand
(``SyntheticSource``), keeps at most ``budget_bytes`` of them resident
(``ShardCache``), and carries only adversarial perturbations between
epochs (``DeltaStore``).  Its payoff is that dataset size no longer caps
what the system can train on — but that is only a win if paying for
regeneration does not throw away the throughput the fast kernels bought.

``test_streaming_epoch_speedup`` gates exactly that trade: an
epochwise-adv epoch over a synthetic stream at least 4x larger than the
configured byte budget must keep peak resident data-pipeline bytes
(shard cache *and* delta store) under budget while sustaining at least
0.8x the examples/s of the same training run over the fully materialised
in-memory dataset.  The attack plus forward/backward dominate each batch
step, and the prefetch thread overlaps shard regeneration with that
compute, so streaming should cost almost nothing on wall-clock.

The gate's name contains ``epoch_speedup`` so the CI benchmark smoke
lanes (which filter ``-k "not epoch_speedup"``) skip the timing gate on
shared runners; ``test_streaming_smoke`` below is the light exercise
those lanes do run — a short bounded-budget training run that must match
its unbounded twin bit-for-bit while staying under budget.

``test_render_rate`` records (without a gate) how fast the prefetch
thread's producer, ``SyntheticSource.shard``, renders digit shards: when
rendering is slower than training consumes, the loader waits on data.
"""

import time

import numpy as np

from conftest import save_artifact, save_bench
from repro.data import DataLoader, SyntheticSource, TensorSource
from repro.defenses import build_trainer
from repro.models import build_model
from repro.optim import SGD
from repro.runtime import compute_dtype

SHARD = 128


def _source(num_examples, seed=0):
    return SyntheticSource(
        "digits", num_examples=num_examples, shard_size=SHARD, seed=seed
    )


def _trainer(budget_bytes=None, model_name="mnist_mlp"):
    model = build_model(model_name, seed=0)
    kwargs = {}
    if budget_bytes is not None:
        kwargs = dict(delta_budget_bytes=budget_bytes, delta_block_size=SHARD)
    return build_trainer(
        "proposed", model, epsilon=0.25,
        optimizer=SGD(model.parameters(), lr=0.05), **kwargs,
    )


def _shard_bytes():
    itemsize = np.dtype(compute_dtype()).itemsize
    return SHARD * (28 * 28 * itemsize + 8)


def _epoch_rate(trainer, loader, num_examples, rounds):
    """Median examples/s over ``rounds`` training epochs."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        trainer.train_epoch(loader)
        times.append(time.perf_counter() - start)
    return num_examples / float(np.median(times))


def test_streaming_epoch_speedup():
    """Streamed epochwise-adv training: under budget, >= 0.8x in-memory.

    The stream is 8 shards; the budget admits 2, so every epoch
    regenerates most of the dataset.  Peak bytes of both pipeline stores
    must stay under budget and throughput must hold 0.8x the in-memory
    path.  The gate trains the paper's CNN: its attack + batch step is
    the compute the prefetch thread hides regeneration behind — on a
    model cheaper than the renderer the 0.8x bound is not achievable and
    not representative.
    """
    num_examples = 8 * SHARD
    budget = 2 * _shard_bytes()
    dataset_bytes = 8 * _shard_bytes()
    assert dataset_bytes >= 4 * budget
    rounds = 3

    in_memory = _trainer(model_name="mnist_cnn")
    loader_m = DataLoader(
        TensorSource(_source(num_examples).materialize()),
        batch_size=64, rng=0,
    )
    in_memory.train_epoch(loader_m)  # warm-up: BLAS, workspace, cache
    rate_memory = _epoch_rate(in_memory, loader_m, num_examples, rounds)

    streamed = _trainer(budget_bytes=budget, model_name="mnist_cnn")
    loader_s = DataLoader(
        _source(num_examples), batch_size=64, rng=0, budget_bytes=budget
    )
    streamed.train_epoch(loader_s)
    rate_stream = _epoch_rate(streamed, loader_s, num_examples, rounds)

    ratio = rate_stream / rate_memory
    dtype = np.dtype(compute_dtype()).name
    lines = [
        f"streaming pipeline: epochwise-adv CNN training, {dtype}, "
        f"{num_examples} examples in {num_examples // SHARD} shards",
        f"byte budget       : {budget} B "
        f"(dataset {dataset_bytes // budget}x larger)",
        f"in-memory path    : {rate_memory:10.0f} examples/s (median)",
        f"streamed path     : {rate_stream:10.0f} examples/s (median)"
        f"  -> {ratio:.2f}x  (gate >= 0.8x)",
        f"shard cache peak  : {loader_s.cache.peak_bytes} B, "
        f"{loader_s.cache.evictions} evictions",
        f"delta store peak  : {streamed.delta_store.peak_bytes} B, "
        f"{streamed.delta_store.evictions} evictions",
    ]
    text = "\n".join(lines)
    path = save_artifact("streaming_throughput.txt", text)
    save_bench(
        "streaming_throughput",
        {
            "ratio": (ratio, "x", "higher"),
            "memory_rps": (rate_memory, "examples/s", None),
            "stream_rps": (rate_stream, "examples/s", None),
        },
        context={"workload": "epochwise-adv CNN training, sharded",
                 "dtype": dtype},
    )
    print(f"\n{text}\nsaved: {path}")

    assert loader_s.cache.peak_bytes <= budget
    assert streamed.delta_store.peak_bytes <= budget
    assert np.isfinite(ratio)
    assert ratio >= 0.8, (
        f"streamed path only {ratio:.2f}x of in-memory examples/s "
        "(expected >= 0.8x)"
    )


def test_streaming_smoke():
    """Light CI exercise: streamed training equals in-memory bit-for-bit.

    One epoch over a 4-shard stream, once through the streaming path and
    once over the materialised dataset, must produce identical
    parameters — and a rerun under a 2-shard budget must stay within it.
    Proves sources, shard-local shuffle, the delta store and the byte
    budget are all live without gating on wall-clock.
    """
    num_examples = 4 * SHARD
    source = _source(num_examples, seed=3)

    streamed = _trainer()
    streamed.fit(DataLoader(source, batch_size=64, rng=1), epochs=1)

    in_memory = _trainer()
    in_memory.fit(
        DataLoader(
            TensorSource(source.materialize(), shard_size=SHARD),
            batch_size=64, rng=1,
        ),
        epochs=1,
    )
    for ps, pm in zip(
        streamed.model.parameters(), in_memory.model.parameters()
    ):
        np.testing.assert_array_equal(ps.data, pm.data)

    budget = 2 * _shard_bytes()
    bounded = _trainer(budget_bytes=budget)
    loader = DataLoader(
        _source(num_examples, seed=3), batch_size=64, rng=1,
        budget_bytes=budget,
    )
    bounded.fit(loader, epochs=2)
    assert loader.cache.peak_bytes <= budget
    assert bounded.delta_store.peak_bytes <= budget
    assert loader.cache.evictions > 0


RENDER_SHARD = 256


def test_render_rate():
    """Digit shard rendering throughput (recorded, not gated).

    Renders 8 shards of 256 examples per round through
    ``SyntheticSource.shard`` (the call the prefetch thread makes) and
    records the median examples/s over the rounds.
    """
    num_shards, rounds = 8, 5
    source = SyntheticSource(
        "digits", num_examples=num_shards * RENDER_SHARD,
        shard_size=RENDER_SHARD, seed=0,
    )
    source.shard(0)  # warm-up: imports, workspace pool
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for shard_id in range(num_shards):
            source.shard(shard_id)
        times.append(time.perf_counter() - start)
    seconds = float(np.median(times))
    rate = num_shards * RENDER_SHARD / seconds
    dtype = source.dtype.name
    text = "\n".join([
        f"digit shard rendering: SyntheticSource.shard, {dtype}, "
        f"shards of {RENDER_SHARD}",
        f"render rate : {rate:10.0f} examples/s (median of {rounds} rounds "
        f"of {num_shards} shards)",
        f"per shard   : {1e3 * seconds / num_shards:10.1f} ms",
    ])
    path = save_artifact("render_throughput.txt", text)
    save_bench(
        "render_throughput",
        {
            "examples_per_s": (rate, "examples/s", None),
            "shard_ms": (1e3 * seconds / num_shards, "ms", None),
        },
        context={"workload": "digits SyntheticSource.shard",
                 "shard_size": RENDER_SHARD, "dtype": dtype},
    )
    print(f"\n{text}\nsaved: {path}")
    assert np.isfinite(rate) and rate > 0
