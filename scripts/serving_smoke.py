#!/usr/bin/env python
"""Boot the serving layer and drive its whole HTTP surface once.

The CI ``tests-serving`` lane runs this after the unit suite: it starts
an in-process server on an ephemeral port with a small untrained CNN,
exercises every endpoint over real HTTP — healthz, single and batched
classify, a cache hit, a robustness audit, an induced 400 — then drives
50 sequential 8-example ``/classify`` requests over one keep-alive
connection, scrapes ``/metrics`` and writes a latency snapshot
(keep-alive p50, request/batch percentiles, cache and batcher counters)
to a JSON file that the lane uploads as a build artifact.

The keep-alive p50 must stay under 40 ms, the delayed-ACK floor a
response split over two sends would pay (see "Response framing" in
docs/serving.md).

Usage::

    PYTHONPATH=src python scripts/serving_smoke.py [--out serving_smoke.json]

Exit code 0 when every probe behaved; any unexpected response raises.
"""

import argparse
import http.client
import json
import statistics
import sys
import time
import urllib.error
import urllib.request

import numpy as np

from repro.models import build_model
from repro.serving import InferenceService, start_server

#: Sequential requests in the keep-alive drive, and examples per request.
_KEEPALIVE_REQUESTS = 50
_KEEPALIVE_BATCH = 8
#: Linux's minimum delayed-ACK timeout: a response whose body waits for
#: the client's ACK of its headers takes at least this long.
_DELAYED_ACK_FLOOR_MS = 40.0


def _call(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method=method,
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _keepalive_p50_ms(host, port, rng) -> float:
    """p50 latency of sequential batched classifies over one connection."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    latencies = []
    try:
        for _ in range(_KEEPALIVE_REQUESTS):
            body = json.dumps(
                {"inputs": rng.random((_KEEPALIVE_BATCH, 784)).tolist()}
            ).encode()
            started = time.perf_counter()
            conn.request("POST", "/classify", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert response.status == 200, response.status
            assert len(payload["predictions"]) == _KEEPALIVE_BATCH, payload
    finally:
        conn.close()
    return statistics.median(latencies)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="serving_smoke.json")
    parser.add_argument("--examples", type=int, default=32)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    service = InferenceService(
        build_model("small_cnn", seed=0),
        max_batch_size=8, cache_size=256,
        name="small_cnn",
    )
    server = start_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"serving smoke against {base}")
    try:
        health = _call("GET", f"{base}/healthz")
        assert health["status"] == "ok", health

        one = rng.random(784).tolist()
        cold = _call("POST", f"{base}/classify", {"input": one})
        assert cold["prediction"]["cached"] is False, cold
        hot = _call("POST", f"{base}/classify", {"input": one})
        assert hot["prediction"]["cached"] is True, hot
        assert hot["prediction"]["probs"] == cold["prediction"]["probs"]

        batch = rng.random((args.examples, 784)).tolist()
        many = _call("POST", f"{base}/classify", {"inputs": batch})
        assert len(many["predictions"]) == args.examples, many

        audit = _call(
            "POST", f"{base}/audit",
            {"attacks": ["clean", "fgsm"],
             "inputs": rng.random((8, 784)).tolist(),
             "labels": [int(i % 10) for i in range(8)],
             "epsilon": 0.1},
        )
        assert set(audit["robust_accuracy"]) == {"clean", "fgsm"}, audit

        try:
            _call("POST", f"{base}/classify", {"input": [1.0, 2.0]})
        except urllib.error.HTTPError as error:
            assert error.code == 400, error.code
        else:
            raise AssertionError("malformed classify did not 400")

        keepalive_p50 = _keepalive_p50_ms(host, port, rng)
        metrics = _call("GET", f"{base}/metrics")
    finally:
        server.shutdown_gracefully()

    histograms = metrics["metrics"]["histograms"]
    snapshot = {
        "endpoint_probes": ["healthz", "classify", "classify_many",
                            "cache_hit", "audit", "bad_request",
                            "keepalive", "metrics"],
        "examples": args.examples,
        "keepalive_requests": _KEEPALIVE_REQUESTS,
        "keepalive_batch": _KEEPALIVE_BATCH,
        "keepalive_ms_p50": keepalive_p50,
        "request_latency_ms": histograms.get("serving.request_latency_ms"),
        "batch_latency_ms": histograms.get(
            "serving.classify.batch_latency_ms"
        ),
        "batch_size": histograms.get("serving.classify.batch_size"),
        "audit_latency_ms": histograms.get("serving.audit_latency_ms"),
        "batcher": metrics["batcher"],
        "cache": metrics["cache"],
    }
    assert snapshot["batch_latency_ms"]["count"] >= 1, snapshot
    assert snapshot["cache"]["hits"] >= 1, snapshot
    with open(args.out, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    if keepalive_p50 >= _DELAYED_ACK_FLOOR_MS:
        raise AssertionError(
            f"keep-alive classify p50 {keepalive_p50:.1f} ms is at the "
            f"{_DELAYED_ACK_FLOOR_MS:.0f} ms delayed-ACK floor"
        )
    batch_ms = snapshot["batch_latency_ms"]
    print(
        f"ok: {snapshot['batcher']['requests']} requests in "
        f"{snapshot['batcher']['batches']} batches, batch p50 "
        f"{batch_ms['p50']:.2f} ms p99 {batch_ms['p99']:.2f} ms, "
        f"keep-alive p50 {keepalive_p50:.2f} ms; "
        f"snapshot -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
