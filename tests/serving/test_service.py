"""InferenceService tests: cache semantics, equivalence, concurrency."""

import threading
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.serving import InferenceService, RequestTimeout, ServiceClosed

_RNG = np.random.default_rng(7)


def _service(**kwargs):
    defaults = dict(
        max_batch_size=8, queue_depth=64,
        cache_size=128, name="small_cnn",
    )
    defaults.update(kwargs)
    return InferenceService(build_model("small_cnn", seed=0), **defaults)


def _example(seed=0):
    return np.random.default_rng(seed).random((1, 28, 28))


def _one(service, x):
    """Classify a single example: a batch of one."""
    return service.classify_many([x])[0]


class _GatedForward:
    """Holds the service's first forward pass until ``release`` is set.

    Only the batcher's worker thread runs forwards, so while the gate is
    shut every later request queues up behind the held batch.
    """

    def __init__(self, service) -> None:
        self._forward = service._forward
        self.entered = threading.Event()
        self.release = threading.Event()
        service._forward = self

    def __call__(self, x):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10.0), "gate never released"
        return self._forward(x)


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _run_behind_gate(service, inputs, client):
    """Run ``client(i)`` on its own thread for every input, coalesced.

    The first client's batch holds the worker; the rest queue behind it
    before the gate opens, so the batches that follow are as full as
    ``max_batch_size`` allows.
    """
    gate = _GatedForward(service)
    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(len(inputs))
    ]
    threads[0].start()
    assert gate.entered.wait(timeout=10.0)
    for t in threads[1:]:
        t.start()
    _wait_for(lambda: service.healthz()["queue_depth"] == len(inputs) - 1)
    gate.release.set()
    for t in threads:
        t.join(timeout=30.0)


class TestClassify:
    def test_single_example_prediction(self):
        with _service() as service:
            prediction = _one(service, _example())
            assert 0 <= prediction.label < 10
            assert prediction.probs.shape == (10,)
            assert prediction.probs.sum() == pytest.approx(1.0)
            assert prediction.cached is False

    def test_flat_input_is_reshaped(self):
        with _service() as service:
            nested = _one(service, _example(3))
            flat = _one(service, _example(3).ravel())
            assert flat.label == nested.label
            assert flat.cached is True  # same bytes, same cache key

    def test_bad_shape_rejected(self):
        with _service() as service:
            with pytest.raises(ValueError, match="per-example"):
                _one(service, np.zeros(100))
            with pytest.raises(ValueError, match="per-example"):
                service.classify_many(np.zeros((2, 99)))

    def test_classify_many_matches_singles(self):
        batch = _RNG.random((6, 1, 28, 28))
        with _service(cache_size=0) as service:
            singles = [_one(service, x) for x in batch]
            with _service(cache_size=0) as fresh:
                many = fresh.classify_many(batch)
            assert [p.label for p in many] == [p.label for p in singles]
            for a, b in zip(many, singles):
                assert np.allclose(a.probs, b.probs, atol=1e-9)

    def test_prediction_matches_model_predict(self):
        batch = _RNG.random((4, 1, 28, 28))
        model = build_model("small_cnn", seed=0)
        with _service() as service:
            predictions = service.classify_many(batch)
        assert [p.label for p in predictions] == list(model.predict(batch))


class TestPredictionCache:
    def test_cache_hit_is_bit_identical_to_cold_inference(self):
        x = _example(11)
        with _service() as service:
            cold = _one(service, x)
            hot = _one(service, x)
            assert cold.cached is False
            assert hot.cached is True
            assert hot.label == cold.label
            assert hot.probs.tobytes() == cold.probs.tobytes()

    def test_cache_returns_private_copies(self):
        x = _example(12)
        with _service() as service:
            first = _one(service, x)
            first.probs[:] = -1.0  # clobber the caller's copy
            again = _one(service, x)
            assert again.cached is True
            assert np.all(again.probs >= 0.0)

    def test_cache_disabled_never_reports_hits(self):
        x = _example(13)
        with _service(cache_size=0) as service:
            assert _one(service, x).cached is False
            assert _one(service, x).cached is False
            assert service.metrics()["cache"]["capacity"] == 0

    def test_distinct_inputs_do_not_collide(self):
        with _service() as service:
            a = _one(service, _example(1))
            b = _one(service, _example(2))
            assert not (
                a.label == b.label
                and a.probs.tobytes() == b.probs.tobytes()
            )

    def test_cache_key_scoped_by_model_signature(self):
        x = _example(21)
        with _service() as service_a:
            sig_a = service_a.signature
        service_b = InferenceService(
            build_model("small_cnn", seed=1), name="small_cnn",
        )
        with service_b:
            assert service_b.signature != sig_a


class TestConcurrency:
    def test_concurrent_clients_see_order_independent_results(self):
        """Interleaving must never cross responses between clients."""
        inputs = _RNG.random((24, 1, 28, 28))
        with _service(cache_size=0) as reference:
            expected = [_one(reference, x) for x in inputs]
        with _service(cache_size=0, max_batch_size=6) as service:
            results = [None] * len(inputs)
            errors = []

            def client(index):
                try:
                    results[index] = _one(service, inputs[index])
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            _run_behind_gate(service, inputs, client)
            stats = service.metrics()["batcher"]
        assert not errors
        # The head alone, then the 23 queued clients in batches of 6.
        assert stats["batches"] == 1 + 4
        assert all(r is not None for r in results)
        for got, want in zip(results, expected):
            assert got.label == want.label
            assert np.allclose(got.probs, want.probs, atol=1e-9)

    def test_concurrent_batches_actually_coalesce(self):
        inputs = _RNG.random((16, 1, 28, 28))
        with _service(cache_size=0, max_batch_size=8) as service:
            _run_behind_gate(
                service, inputs, lambda i: _one(service, inputs[i])
            )
            stats = service.metrics()["batcher"]
        # The head alone, then the 15 queued requests as 8 + 7: one
        # forward pass per batch, not per request.
        assert stats["requests"] == 16
        assert stats["batches"] == 3


class TestAuditAndLifecycle:
    def test_audit_reports_per_spec_accuracy(self):
        x = _RNG.random((10, 1, 28, 28))
        y = np.arange(10) % 10
        with _service() as service:
            report = service.audit(
                ["clean", "fgsm", "bim:num_steps=2"], x, y, epsilon=0.1
            )
        rows = report["robust_accuracy"]
        assert set(rows) == {"clean", "fgsm", "bim:num_steps=2"}
        assert all(0.0 <= v <= 1.0 for v in rows.values())
        assert report["examples"] == 10
        assert report["epsilon"] == 0.1

    def test_audit_leaves_no_parameter_gradients(self):
        x = _RNG.random((4, 1, 28, 28))
        model = build_model("small_cnn", seed=0)
        service = InferenceService(model)
        with service:
            service.audit(["fgsm"], x, np.zeros(4, dtype=np.int64))
        assert all(p.grad is None for p in model.parameters())

    def test_audit_label_count_mismatch(self):
        with _service() as service:
            with pytest.raises(ValueError, match="labels"):
                service.audit(["clean"], _RNG.random((3, 1, 28, 28)), [0, 1])

    def test_classify_after_close_raises_service_closed(self):
        service = _service()
        service.close()
        with pytest.raises(ServiceClosed):
            _one(service, _example())

    def test_healthz_and_metrics_payloads(self):
        with _service() as service:
            _one(service, _example(5))
            _one(service, _example(5))
            health = service.healthz()
            metrics = service.metrics()
        assert health["status"] == "ok"
        assert health["model"] == "small_cnn"
        assert health["signature"] == service.signature
        assert metrics["cache"]["hits"] == 1
        assert metrics["batcher"]["requests"] >= 1
        snapshot = metrics["metrics"]
        latency = snapshot["histograms"].get("serving.request_latency_ms")
        assert latency is not None and latency["count"] >= 2
        assert {"p50", "p90", "p99"} <= set(latency)

    def test_classify_many_records_latency_for_every_example(self):
        def count():
            histograms = service.metrics()["metrics"]["histograms"]
            latency = histograms.get("serving.request_latency_ms")
            return 0 if latency is None else latency["count"]

        with _service(cache_size=0) as service:
            before = count()
            service.classify_many(_RNG.random((5, 1, 28, 28)))
            assert count() - before == 5

    def test_batch_deadline_miss_is_counted(self):
        """A late client batch raises and counts exactly one timeout."""

        def timeouts():
            counters = service.metrics()["metrics"]["counters"]
            return counters.get("serving.classify.timeouts", 0)

        with _service(cache_size=0) as service:
            forward = service._forward

            def slow(x):
                time.sleep(0.3)
                return forward(x)

            service._forward = slow
            before = timeouts()
            with pytest.raises(RequestTimeout):
                service.classify_many(
                    _RNG.random((3, 1, 28, 28)), timeout=0.01
                )
            assert service.metrics()["batcher"]["timeouts"] == 1
            assert timeouts() - before == 1
