"""The inference + robustness-audit service behind ``repro serve``.

:class:`InferenceService` owns a trained classifier and exposes the four
operations the HTTP layer (and tests, which drive it in-process) need:

* :meth:`classify_many` — every example of a request is looked up in an
  LRU **prediction cache**; the misses go together to the
  :class:`~repro.serving.batching.MicroBatcher`, which coalesces
  concurrent requests into one batched forward pass under ``no_grad``.
  A single example is a batch of one;
* :meth:`audit` — robust accuracy of the served model under any attack
  from the registry's ``name:param=value`` spec grammar;
* :meth:`healthz` / :meth:`metrics` — liveness and the process-wide
  telemetry snapshot (counters, gauges, histograms with p50/p90/p99).

Cache semantics
---------------
Keys are ``blake2b`` digests of the input's raw bytes plus shape/dtype,
scoped by a **model/policy signature** (digest of every parameter array,
the compute dtype, and the model name) computed once at construction.
The model is frozen while served, so a cached prediction is exactly the
array a cold forward pass of the same bytes produced — hits are returned
as copies and are bit-identical to the stored cold result.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as tel
from ..attacks import build_attack, parse_attack_spec
from ..autograd import as_tensor, no_grad
from ..eval.robustness import clean_accuracy, robust_accuracy
from ..nn import Module
from ..runtime import compute_dtype
from ..utils.lru import LRUCache
from .batching import MicroBatcher

__all__ = ["InferenceService", "Prediction"]


class Prediction:
    """One classify result: hard label, class probabilities, cache flag."""

    __slots__ = ("label", "probs", "cached")

    def __init__(self, label: int, probs: np.ndarray, cached: bool) -> None:
        self.label = label
        self.probs = probs
        self.cached = cached

    def to_dict(self) -> dict:
        """JSON-serialisable form used by the HTTP layer."""
        return {
            "label": self.label,
            "probs": [float(p) for p in self.probs],
            "cached": self.cached,
        }


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, matching ``FeatureClassifier.predict_proba``."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class InferenceService:
    """Micro-batched, cached, backpressured serving of one classifier.

    Parameters
    ----------
    model:
        Trained classifier (must not be mutated while served — the
        prediction cache assumes frozen parameters).
    input_shape:
        Per-example shape the model expects (channels, height, width).
    max_batch_size / queue_depth:
        Micro-batch bound and admission bound, forwarded to
        :class:`~repro.serving.batching.MicroBatcher`.
    timeout_s:
        Default per-request deadline for :meth:`classify_many`.
    cache_size:
        Prediction-cache capacity in entries; 0 disables caching.
    epsilon:
        Default perturbation budget for :meth:`audit` attack specs that
        do not name one.
    name:
        Model label reported by ``healthz`` and folded into the cache
        signature.
    """

    def __init__(
        self,
        model: Module,
        *,
        input_shape: Tuple[int, ...] = (1, 28, 28),
        max_batch_size: int = 32,
        queue_depth: int = 256,
        timeout_s: float = 30.0,
        cache_size: int = 4096,
        epsilon: float = 0.25,
        name: str = "model",
    ) -> None:
        self._model = model
        self.input_shape = tuple(int(d) for d in input_shape)
        self.timeout_s = float(timeout_s)
        self.epsilon = float(epsilon)
        self.name = name
        self._dtype = np.dtype(compute_dtype())
        self.signature = self._model_signature()
        self._metrics = tel.get_metrics()
        self._started = time.time()
        self._cache: Optional[LRUCache] = (
            LRUCache(cache_size) if cache_size > 0 else None
        )
        self._cache_lock = threading.Lock()
        self._audit_lock = threading.Lock()
        self._batcher = MicroBatcher(
            self._infer_batch,
            max_batch_size=max_batch_size,
            queue_depth=queue_depth,
        )

    # -- signatures and keys ---------------------------------------------
    def _model_signature(self) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.name.encode())
        digest.update(self._dtype.str.encode())
        for key, value in sorted(self._model.state_dict().items()):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        return digest.hexdigest()

    def _cache_key(self, example: np.ndarray) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.signature.encode())
        digest.update(str(example.dtype).encode())
        digest.update(str(example.shape).encode())
        digest.update(example.tobytes())
        return digest.digest()

    # -- input coercion ---------------------------------------------------
    def coerce_batch(self, data) -> np.ndarray:
        """Coerce a batch to ``(N, *input_shape)``.

        Accepts the exact per-example shape or anything with the right
        number of elements per example (e.g. flat 784-vectors for 1x28x28
        inputs).
        """
        arr = np.asarray(data, dtype=self._dtype)
        if arr.ndim == 1 or arr.shape[1:] != self.input_shape:
            per = int(np.prod(self.input_shape))
            if arr.ndim < 2 or arr.shape[0] * per != arr.size:
                raise ValueError(
                    f"batch shape {arr.shape} does not match per-example "
                    f"shape {self.input_shape}"
                )
            arr = arr.reshape((arr.shape[0], *self.input_shape))
        return np.ascontiguousarray(arr)

    # -- the batched forward ----------------------------------------------
    def _forward(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            return self._model(as_tensor(x)).data

    def _infer_batch(self, payloads: Sequence[np.ndarray]) -> List[Tuple]:
        x = np.stack(payloads).astype(self._dtype, copy=False)
        logits = self._forward(x)
        probs = _softmax(logits)
        labels = np.argmax(logits, axis=1)
        return [
            (int(labels[i]), probs[i].copy()) for i in range(len(payloads))
        ]

    # -- classify ---------------------------------------------------------
    def classify_many(
        self, data, timeout: Optional[float] = None
    ) -> List[Prediction]:
        """Serve a client-side batch; one example is a batch of one.

        Every example is hashed and looked up first; cache hits are
        answered immediately.  The misses are then admitted together
        through :meth:`MicroBatcher.submit_many` — atomically, so they
        coalesce into as few batches as ``max_batch_size`` allows, and
        all-or-nothing, so an overloaded service sheds the request before
        any of its work is queued.  Results are gathered under one
        deadline.

        Raises :class:`~repro.serving.batching.QueueFullError` when shed,
        :class:`~repro.serving.batching.RequestTimeout` past the deadline
        and :class:`~repro.serving.batching.ServiceClosed` after
        :meth:`close`.
        """
        batch = self.coerce_batch(data)
        results: List[Optional[Prediction]] = [None] * batch.shape[0]
        misses: List[Tuple[int, bytes]] = []
        for index in range(batch.shape[0]):
            started = time.perf_counter()
            key = self._cache_key(batch[index])
            hit = self._cache_get(key)
            if hit is not None:
                label, probs = hit
                results[index] = Prediction(label, probs.copy(), True)
                self._observe_request(started, cached=True)
            else:
                misses.append((index, key))
        admitted = time.perf_counter()
        futures = self._batcher.submit_many([batch[i] for i, _ in misses])
        answers = self._batcher.gather(
            futures, self.timeout_s if timeout is None else timeout
        )
        for (index, key), (label, probs) in zip(misses, answers):
            self._cache_put(key, (label, probs))
            results[index] = Prediction(label, probs.copy(), False)
            self._observe_request(admitted, cached=False)
        return results  # type: ignore[return-value]

    def _cache_get(self, key):
        cache = self._cache
        if cache is None:
            return None
        with self._cache_lock:
            value = cache.get(key)
        self._metrics.inc(
            "serving.cache.hits" if value is not None
            else "serving.cache.misses"
        )
        return value

    def _cache_put(self, key, value) -> None:
        cache = self._cache
        if cache is None:
            return
        with self._cache_lock:
            cache.put(key, value)

    def _observe_request(self, started: float, *, cached: bool) -> None:
        """Count one answered example and its latency since ``started``."""
        self._metrics.inc("serving.requests")
        if cached:
            self._metrics.inc("serving.requests.cached")
        self._metrics.observe(
            "serving.request_latency_ms",
            (time.perf_counter() - started) * 1000.0,
        )

    # -- audit ------------------------------------------------------------
    def audit(
        self,
        attacks: Sequence[str],
        x,
        y,
        *,
        epsilon: Optional[float] = None,
        batch_size: int = 64,
    ) -> dict:
        """Robust accuracy of the served model under attack specs.

        ``attacks`` are registry spec strings (``"pgd:num_steps=10"``);
        the clean/none spec reports clean accuracy.  Audits serialise on
        one lock — they run full forward/backward attack loops and must
        not starve the classify path of admission capacity (they bypass
        the classify queue entirely).
        """
        batch = self.coerce_batch(x)
        labels = np.asarray(y, dtype=np.int64)
        if labels.shape[0] != batch.shape[0]:
            raise ValueError(
                f"got {labels.shape[0]} labels for {batch.shape[0]} inputs"
            )
        budget = self.epsilon if epsilon is None else float(epsilon)
        started = time.perf_counter()
        rows = {}
        with self._audit_lock:
            for spec in attacks:
                parsed = parse_attack_spec(spec)
                attack = build_attack(parsed, self._model, epsilon=budget)
                if attack is None:
                    accuracy = clean_accuracy(
                        self._model, batch, labels, batch_size=batch_size
                    )
                else:
                    accuracy = robust_accuracy(
                        self._model, attack, batch, labels,
                        batch_size=batch_size,
                    )
                rows[parsed.render()] = float(accuracy)
            # Attack backward passes accumulate parameter gradients the
            # serving model must not carry around.
            self._model.zero_grad()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._metrics.inc("serving.audits")
        self._metrics.observe("serving.audit_latency_ms", elapsed_ms)
        return {
            "model": self.name,
            "signature": self.signature,
            "epsilon": budget,
            "examples": int(batch.shape[0]),
            "robust_accuracy": rows,
            "elapsed_ms": elapsed_ms,
        }

    # -- introspection -----------------------------------------------------
    def healthz(self) -> dict:
        """Liveness payload for load balancers and the smoke tests."""
        stats = self._batcher.stats
        return {
            "status": "shutting_down" if stats["closed"] else "ok",
            "model": self.name,
            "signature": self.signature,
            "dtype": self._dtype.name,
            "uptime_s": time.time() - self._started,
            "queue_depth": stats["queue_depth"],
            "queue_capacity": self._batcher.queue_depth,
        }

    def metrics(self) -> dict:
        """Full metrics payload: registry snapshot + serving-local stats."""
        with self._cache_lock:
            cache_stats = (
                self._cache.stats if self._cache is not None
                else {"hits": 0, "misses": 0, "size": 0, "capacity": 0}
            )
        return {
            "metrics": self._metrics.snapshot(),
            "batcher": self._batcher.stats,
            "cache": cache_stats,
        }

    # -- lifecycle ---------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain in-flight requests."""
        self._batcher.close(timeout)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
