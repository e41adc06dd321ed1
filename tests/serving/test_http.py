"""HTTP endpoint tests: routing, payloads, and error-status mapping."""

import http.client
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models import build_model
from repro.serving import (
    InferenceService,
    QueueFullError,
    ServiceClosed,
    start_server,
)
from repro.serving.http import ServingHandler

_RNG = np.random.default_rng(3)


@pytest.fixture(scope="module")
def served():
    """One shared server for the module: (base_url, service, server)."""
    service = InferenceService(
        build_model("small_cnn", seed=0),
        max_batch_size=8, max_wait_us=500, cache_size=64,
        name="small_cnn",
    )
    server = start_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", service, server
    server.shutdown_gracefully()


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post_error(url, payload) -> urllib.error.HTTPError:
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, payload)
    return excinfo.value


class TestEndpoints:
    def test_healthz(self, served):
        base, service, _server = served
        status, payload = _get(f"{base}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["signature"] == service.signature

    def test_classify_single(self, served):
        base, _service, _server = served
        x = _RNG.random(784).tolist()
        status, payload = _post(f"{base}/classify", {"input": x})
        assert status == 200
        prediction = payload["prediction"]
        assert 0 <= prediction["label"] < 10
        assert len(prediction["probs"]) == 10
        # Same bytes again: served from the prediction cache, identically.
        _status, again = _post(f"{base}/classify", {"input": x})
        assert again["prediction"]["cached"] is True
        assert again["prediction"]["probs"] == prediction["probs"]

    def test_classify_batch(self, served):
        base, _service, _server = served
        xs = _RNG.random((5, 784)).tolist()
        status, payload = _post(f"{base}/classify", {"inputs": xs})
        assert status == 200
        assert len(payload["predictions"]) == 5

    def test_audit(self, served):
        base, _service, _server = served
        xs = _RNG.random((6, 784)).tolist()
        status, payload = _post(
            f"{base}/audit",
            {"attack": "fgsm", "inputs": xs, "labels": [0, 1, 2, 3, 4, 5],
             "epsilon": 0.1},
        )
        assert status == 200
        assert "fgsm" in payload["robust_accuracy"]

    def test_metrics_exposes_quantile_histograms(self, served):
        base, _service, _server = served
        _post(f"{base}/classify", {"input": _RNG.random(784).tolist()})
        status, payload = _get(f"{base}/metrics")
        assert status == 200
        histograms = payload["metrics"]["histograms"]
        latency = histograms["serving.request_latency_ms"]
        assert {"count", "mean", "p50", "p90", "p99"} <= set(latency)
        assert payload["batcher"]["requests"] >= 1
        assert "cache" in payload


class TestErrorMapping:
    def test_unknown_route_404(self, served):
        base, _service, _server = served
        error = _post_error(f"{base}/nope", {"input": []})
        assert error.code == 404

    def test_malformed_payload_400(self, served):
        base, _service, _server = served
        assert _post_error(f"{base}/classify", {}).code == 400
        assert _post_error(
            f"{base}/classify", {"input": [1.0, 2.0]}
        ).code == 400
        assert _post_error(
            f"{base}/audit", {"attack": "fgsm"}
        ).code == 400

    def test_unknown_attack_spec_400(self, served):
        base, _service, _server = served
        error = _post_error(
            f"{base}/audit",
            {"attack": "definitely_not_an_attack",
             "inputs": [[0.0] * 784], "labels": [0]},
        )
        assert error.code == 400

    def test_overload_maps_to_429(self, served, monkeypatch):
        base, service, _server = served

        def shed(*args, **kwargs):
            raise QueueFullError("request queue is full; request shed")

        monkeypatch.setattr(service, "classify", shed)
        error = _post_error(
            f"{base}/classify", {"input": [0.0] * 784}
        )
        assert error.code == 429
        assert json.loads(error.read())["error"] == "overloaded"

    def test_shutdown_maps_to_503(self, served, monkeypatch):
        base, service, _server = served

        def closed(*args, **kwargs):
            raise ServiceClosed("batcher is shut down")

        monkeypatch.setattr(service, "classify", closed)
        error = _post_error(
            f"{base}/classify", {"input": [0.0] * 784}
        )
        assert error.code == 503
        assert json.loads(error.read())["error"] == "shutting_down"


class TestOpenMetrics:
    def test_openmetrics_accept_header_gets_text_exposition(self, served):
        base, _service, _server = served
        _post(f"{base}/classify", {"input": _RNG.random(784).tolist()})
        request = urllib.request.Request(
            f"{base}/metrics",
            headers={"Accept": "application/openmetrics-text"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            content_type = response.headers.get("Content-Type")
            body = response.read().decode()
        assert content_type.startswith("application/openmetrics-text")
        assert "# TYPE repro_serving_batcher_requests gauge" in body
        assert body.endswith("# EOF\n")

    def test_text_plain_accept_also_gets_openmetrics(self, served):
        base, _service, _server = served
        request = urllib.request.Request(
            f"{base}/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.read().decode().endswith("# EOF\n")

    def test_json_stays_the_default(self, served):
        base, _service, _server = served
        status, payload = _get(f"{base}/metrics")
        assert status == 200
        assert "metrics" in payload and "batcher" in payload


class _WriteRecorder:
    """Wraps a handler's ``wfile`` and keeps every ``write`` it sees."""

    def __init__(self, wfile, writes):
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class TestResponseFraming:
    @pytest.fixture()
    def writes(self, monkeypatch):
        """Socket writes of handlers set up during the test."""
        writes = []
        setup = ServingHandler.setup

        def recording_setup(handler):
            setup(handler)
            handler.wfile = _WriteRecorder(handler.wfile, writes)

        monkeypatch.setattr(ServingHandler, "setup", recording_setup)
        return writes

    @staticmethod
    def _exchange(server, body):
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=30)
        try:
            conn.request("POST", "/classify", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    @staticmethod
    def _assert_one_framed_write(writes, status, body):
        assert len(writes) == 1, [len(w) for w in writes]
        head, sep, payload = writes[0].partition(b"\r\n\r\n")
        assert sep and payload == body
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert int(headers["Content-Length"]) == len(body)

    def test_classify_response_leaves_in_one_write(self, served, writes):
        _base, _service, server = served
        xs = _RNG.random((3, 784)).tolist()
        status, body = self._exchange(
            server, json.dumps({"inputs": xs}).encode()
        )
        assert status == 200
        assert len(json.loads(body)["predictions"]) == 3
        self._assert_one_framed_write(writes, 200, body)

    def test_error_response_leaves_in_one_write(self, served, writes):
        _base, _service, server = served
        status, body = self._exchange(
            server, json.dumps({"input": [1.0, 2.0]}).encode()
        )
        assert status == 400
        assert json.loads(body)["error"] == "bad_request"
        self._assert_one_framed_write(writes, 400, body)

    def test_keep_alive_serves_sequential_requests(self, served):
        _base, _service, server = served
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=30)
        try:
            for index in range(20):
                xs = _RNG.random((index % 4 + 1, 784)).tolist()
                conn.request("POST", "/classify",
                             body=json.dumps({"inputs": xs}).encode(),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200
                assert int(response.getheader("Content-Length")) == len(body)
                assert len(json.loads(body)["predictions"]) == len(xs)
                assert not response.will_close
        finally:
            conn.close()


def _post_traced(url, payload, header):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json",
                 "X-Repro-Trace": header},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return (
            response.headers.get("X-Repro-Trace"),
            json.loads(response.read()),
        )


def _wait_for_spans(run, name, count, timeout=10.0):
    import time as time_module

    from repro.telemetry import load_records

    deadline = time_module.monotonic() + timeout
    while time_module.monotonic() < deadline:
        spans = [
            r for r in load_records(run)
            if r.get("type") == "span" and r.get("name") == name
        ]
        if len(spans) >= count:
            return spans
        time_module.sleep(0.02)
    raise AssertionError(f"never saw {count} {name!r} span(s) in {run}")


class TestTracePropagation:
    def test_traced_classify_produces_one_merged_trace(self, served,
                                                       tmp_path):
        """The acceptance scenario: client trace -> request -> batch."""
        from repro import telemetry as tel
        from repro.telemetry.trace import TraceCollector

        base, _service, _server = served
        client = "ab" * 8 + "-" + "cd" * 8
        run = str(tmp_path / "run.jsonl")
        with tel.capture(jsonl=run):
            echoed, payload = _post_traced(
                f"{base}/classify",
                {"input": _RNG.random(784).tolist()},
                client,
            )
            assert "prediction" in payload
            (request_span,) = _wait_for_spans(run, "serving.request", 1)
            (batch_span,) = _wait_for_spans(run, "serving.batch", 1)

        trace_id, _, span_id = echoed.partition("-")
        assert trace_id == "ab" * 8
        assert span_id == request_span["span_id"]
        assert request_span["trace_id"] == "ab" * 8
        assert request_span["parent_id"] == "cd" * 8
        assert batch_span["trace_id"] == "ab" * 8
        assert batch_span["parent_id"] == request_span["span_id"]

        collector = TraceCollector.from_run(run)
        assert collector.trace_ids() == ["ab" * 8]
        text = collector.render_one("ab" * 8)
        assert "serving.request" in text and "serving.batch" in text

    def test_untraced_request_has_no_trace_header(self, served):
        base, _service, _server = served
        request = urllib.request.Request(
            f"{base}/classify",
            data=json.dumps({"input": _RNG.random(784).tolist()}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers.get("X-Repro-Trace") is None

    def test_malformed_trace_header_is_ignored(self, served):
        base, _service, _server = served
        echoed, payload = _post_traced(
            f"{base}/classify",
            {"input": _RNG.random(784).tolist()},
            "definitely-not-hex-ids",
        )
        assert echoed is None
        assert "prediction" in payload

    def test_concurrent_requests_never_share_span_stacks(self, served,
                                                         tmp_path):
        """Each handler thread's span must carry its own client's ids."""
        import threading

        from repro import telemetry as tel

        base, _service, _server = served
        run = str(tmp_path / "run.jsonl")
        clients = {f"{i:016x}": f"{i + 64:016x}" for i in range(1, 9)}
        results = {}
        errors = []

        def fire(trace_id, span_id):
            try:
                echoed, _payload = _post_traced(
                    f"{base}/classify",
                    {"input": _RNG.random(784).tolist()},
                    f"{trace_id}-{span_id}",
                )
                results[trace_id] = echoed
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        with tel.capture(jsonl=run):
            threads = [
                threading.Thread(target=fire, args=item)
                for item in clients.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            spans = _wait_for_spans(
                run, "serving.request", len(clients)
            )
        assert not errors, errors[0]
        # Every response echoes its own trace id, not another client's.
        for trace_id, echoed in results.items():
            assert echoed.split("-")[0] == trace_id
        # Every recorded span parents on exactly its client's span id.
        by_trace = {s["trace_id"]: s for s in spans}
        assert set(by_trace) == set(clients)
        for trace_id, span in by_trace.items():
            assert span["parent_id"] == clients[trace_id]
