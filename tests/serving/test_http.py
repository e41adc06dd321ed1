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
    RequestTimeout,
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
        max_batch_size=8, cache_size=64,
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
        with _post_error(f"{base}/nope", {"input": []}) as error:
            assert error.code == 404

    def test_malformed_payload_400(self, served):
        base, _service, _server = served
        for path, payload in [
            ("classify", {}),
            ("classify", {"input": [1.0, 2.0]}),
            ("audit", {"attack": "fgsm"}),
        ]:
            with _post_error(f"{base}/{path}", payload) as error:
                assert error.code == 400

    @pytest.mark.parametrize(
        "spec",
        ["definitely_not_an_attack", "mim", "bim:early_stop=true",
         "pgd:restarts=3"],
    )
    def test_unknown_attack_spec_400(self, served, spec):
        base, _service, _server = served
        with _post_error(
            f"{base}/audit",
            {"attack": spec, "inputs": [[0.0] * 784], "labels": [0]},
        ) as error:
            assert error.code == 400

    def test_overload_maps_to_429(self, served, monkeypatch):
        base, service, _server = served

        def shed(*args, **kwargs):
            raise QueueFullError("request queue is full; request shed")

        monkeypatch.setattr(service, "classify_many", shed)
        with _post_error(
            f"{base}/classify", {"input": [0.0] * 784}
        ) as error:
            assert error.code == 429
            assert json.loads(error.read())["error"] == "overloaded"

    def test_shutdown_maps_to_503(self, served, monkeypatch):
        base, service, _server = served

        def closed(*args, **kwargs):
            raise ServiceClosed("batcher is shut down")

        monkeypatch.setattr(service, "classify_many", closed)
        with _post_error(
            f"{base}/classify", {"input": [0.0] * 784}
        ) as error:
            assert error.code == 503
            assert json.loads(error.read())["error"] == "shutting_down"

    def test_timeout_maps_to_504(self, served, monkeypatch):
        base, service, _server = served

        def late(*args, **kwargs):
            raise RequestTimeout("1 of 1 result(s) missed the deadline")

        monkeypatch.setattr(service, "classify_many", late)
        with _post_error(
            f"{base}/classify", {"inputs": [[0.0] * 784]}
        ) as error:
            assert error.code == 504
            assert json.loads(error.read())["error"] == "timeout"


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


def _post_with_headers(url, payload, headers):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **headers},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.headers, response.read()


class TestTraceHeader:
    def test_old_trace_header_changes_nothing(self, served):
        """A client still sending ``X-Repro-Trace`` gets the same answer
        as one without it, and no such header comes back."""
        base, _service, _server = served
        url = f"{base}/classify"
        payload = {"input": _RNG.random(784).tolist()}
        # Warm the prediction cache so both answers below are cache hits.
        _post_with_headers(url, payload, {})
        plain = _post_with_headers(url, payload, {})
        traced = _post_with_headers(
            url, payload, {"X-Repro-Trace": "ab" * 8 + "-" + "cd" * 8}
        )
        assert plain[0] == traced[0] == 200
        assert traced[2] == plain[2]
        assert "prediction" in json.loads(traced[2])
        assert traced[1].get("X-Repro-Trace") is None


class TestTracePropagation:
    def test_untraced_request_has_no_trace_header(self, served):
        base, _service, _server = served
        status, headers, _body = _post_with_headers(
            f"{base}/classify", {"input": _RNG.random(784).tolist()}, {}
        )
        assert status == 200
        assert headers.get("X-Repro-Trace") is None

    def test_malformed_trace_header_is_ignored(self, served):
        base, _service, _server = served
        status, headers, body = _post_with_headers(
            f"{base}/classify",
            {"input": _RNG.random(784).tolist()},
            {"X-Repro-Trace": "definitely-not-hex-ids"},
        )
        assert status == 200
        assert headers.get("X-Repro-Trace") is None
        assert "prediction" in json.loads(body)
