"""High-throughput serving: micro-batching, prediction cache, backpressure.

The ``repro serve`` subsystem — an async inference + robustness-audit
service built on the standard library only:

* :class:`~repro.serving.batching.MicroBatcher` coalesces concurrent
  requests into batched forward passes (work-conserving, up to
  max-batch-size) behind a bounded queue that sheds on overload;
* :class:`~repro.serving.service.InferenceService` adds the LRU
  prediction cache (input digest + model/policy signature keys), the
  attack-registry ``audit`` endpoint and the telemetry surface;
* :mod:`~repro.serving.http` exposes it all over JSON/HTTP
  (``classify``, ``audit``, ``healthz``, ``metrics``).

See ``docs/serving.md`` for architecture and tuning, and
``benchmarks/bench_serving.py`` for the throughput gate.
"""

from .batching import (
    MicroBatcher,
    QueueFullError,
    RequestTimeout,
    ServiceClosed,
    ServingError,
)
from .http import ServingServer, start_server
from .service import InferenceService, Prediction

__all__ = [
    "MicroBatcher",
    "ServingError",
    "QueueFullError",
    "RequestTimeout",
    "ServiceClosed",
    "InferenceService",
    "Prediction",
    "ServingServer",
    "start_server",
]
