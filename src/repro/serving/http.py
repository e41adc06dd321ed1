"""Stdlib HTTP front-end for :class:`~repro.serving.service.InferenceService`.

A thin JSON-over-HTTP adapter on ``http.server`` — no framework, no
dependency.  ``ThreadingHTTPServer`` gives one handler thread per
connection; all of them funnel into the service's micro-batcher, which is
where concurrency is actually managed (bounded queue, work-conserving
coalescing, single inference worker).  Every response leaves in one send
(see ``ServingHandler._send_body``).

Endpoints
---------
``POST /classify``
    ``{"input": [...]}`` for one example or ``{"inputs": [[...], ...]}``
    for a client-side batch; flat 784-vectors and nested
    ``1x28x28`` arrays are both accepted.  Responds with
    ``{"prediction": {...}}`` or ``{"predictions": [...]}`` where each
    prediction is ``{"label", "probs", "cached"}``.
``POST /audit``
    ``{"attack": "pgd:num_steps=10", "inputs": ..., "labels": [...]}``
    (``"attacks": [...]`` for several specs, optional ``"epsilon"``);
    responds with per-spec robust accuracy.
``GET /healthz``
    Liveness payload.
``GET /metrics``
    Full telemetry snapshot: counters, gauges, histograms (with
    p50/p90/p99), batcher and prediction-cache stats.  JSON by default;
    an ``Accept`` header naming ``application/openmetrics-text`` or
    ``text/plain`` gets the OpenMetrics text exposition instead
    (:mod:`repro.telemetry.openmetrics`), so Prometheus-style scrapers
    work unmodified.

Distributed tracing
-------------------
A request carrying an ``X-Repro-Trace: <trace_id>-<span_id>`` header is
served inside a ``serving.request`` span parented on the caller's
context: the handler thread enables telemetry for the request's duration,
the span's context flows through the micro-batcher to the batch that
executes the forward pass, and the response echoes ``X-Repro-Trace`` with
the request span's ids so the client can locate its spans in the server's
run record (``repro report RUN --trace``).  Malformed headers are
ignored, never an error.

Failure mapping: shed requests are ``429 {"error": "overloaded"}``,
missed deadlines ``504 {"error": "timeout"}``, shutdown ``503
{"error": "shutting_down"}``, malformed payloads ``400``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .. import telemetry as tel
from ..telemetry import trace as teltrace
from ..telemetry.openmetrics import CONTENT_TYPE, render_service_metrics
from .batching import ServingError
from .service import InferenceService

__all__ = ["ServingHandler", "ServingServer", "start_server"]

#: Request bodies above this are rejected outright (64 MiB of JSON floats
#: is far beyond any sane classify batch).
_MAX_BODY_BYTES = 64 * 1024 * 1024


class ServingHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the server's :class:`InferenceService`."""

    protocol_version = "HTTP/1.1"
    server: "ServingServer"

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self._send_body(status, "application/json", body)

    def _send_body(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        response_trace = getattr(self, "_response_trace", None)
        if response_trace is not None:
            self.send_header(teltrace.TRACE_HEADER, response_trace)
        # Status line, headers and body leave in one send.  end_headers()
        # followed by wfile.write(body) would be two small writes, and with
        # Nagle on the body would wait for the client's delayed ACK (at
        # least 40 ms on Linux).  An HTTP/0.9 reply has no header block.
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > _MAX_BODY_BYTES:
            raise ValueError(f"request body over {_MAX_BODY_BYTES} bytes")
        payload = json.loads(self.rfile.read(length))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _fail(self, exc: Exception) -> None:
        if isinstance(exc, ServingError):
            self._send_json(
                exc.status, {"error": exc.code, "detail": str(exc)}
            )
        elif isinstance(exc, (ValueError, KeyError, TypeError)):
            self._send_json(400, {"error": "bad_request", "detail": str(exc)})
        else:
            self._send_json(
                500, {"error": "internal", "detail": str(exc)}
            )

    # -- tracing ----------------------------------------------------------
    def _dispatch(self, method: str, route) -> None:
        """Run ``route`` inside a ``serving.request`` span when traced.

        ``enabled`` is thread-local and handler threads are fresh per
        connection, so tracing a request costs nothing unless the client
        asked for it by sending ``X-Repro-Trace``.
        """
        # Reset per request: handler instances persist across keep-alive
        # requests, and an untraced request must not echo a stale header.
        self._response_trace = None
        ctx = teltrace.parse_trace_header(
            self.headers.get(teltrace.TRACE_HEADER)
        )
        if ctx is None:
            try:
                route()
            except Exception as exc:  # noqa: BLE001 - becomes the response
                self._fail(exc)
            return
        previous = tel.set_enabled(True)
        try:
            with tel.trace_context(ctx):
                with tel.span(
                    "serving.request", method=method, path=self.path
                ):
                    own = tel.current_context()
                    if own is not None:
                        self._response_trace = teltrace.format_trace_header(
                            own
                        )
                    try:
                        route()
                    except Exception as exc:  # noqa: BLE001
                        self._fail(exc)
        finally:
            tel.set_enabled(previous)

    # -- routes -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST", self._route_post)

    def _route_get(self) -> None:
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(200, service.healthz())
        elif self.path == "/metrics":
            self._metrics(service)
        else:
            self._send_json(404, {"error": "not_found"})

    def _route_post(self) -> None:
        service = self.server.service
        if self.path == "/classify":
            self._send_json(200, self._classify(service))
        elif self.path == "/audit":
            self._send_json(200, self._audit(service))
        else:
            self._send_json(404, {"error": "not_found"})

    def _metrics(self, service: InferenceService) -> None:
        payload = service.metrics()
        accept = (self.headers.get("Accept") or "").lower()
        if "application/openmetrics-text" in accept or "text/plain" in accept:
            self._send_body(
                200, CONTENT_TYPE, render_service_metrics(payload).encode()
            )
        else:
            self._send_json(200, payload)

    def _classify(self, service: InferenceService) -> dict:
        payload = self._read_json()
        timeout = payload.get("timeout")
        if "input" in payload:
            prediction = service.classify(payload["input"], timeout=timeout)
            return {"prediction": prediction.to_dict()}
        if "inputs" in payload:
            predictions = service.classify_many(
                payload["inputs"], timeout=timeout
            )
            return {"predictions": [p.to_dict() for p in predictions]}
        raise ValueError("classify payload needs 'input' or 'inputs'")

    def _audit(self, service: InferenceService) -> dict:
        payload = self._read_json()
        specs = payload.get("attacks")
        if specs is None:
            spec = payload.get("attack")
            if spec is None:
                raise ValueError("audit payload needs 'attack' or 'attacks'")
            specs = [spec]
        if "inputs" not in payload or "labels" not in payload:
            raise ValueError("audit payload needs 'inputs' and 'labels'")
        return service.audit(
            specs,
            payload["inputs"],
            payload["labels"],
            epsilon=payload.get("epsilon"),
        )


class ServingServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`InferenceService`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: InferenceService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServingHandler)
        self.service = service
        self.verbose = verbose

    def shutdown_gracefully(self) -> None:
        """Stop accepting connections, then drain the service."""
        self.shutdown()
        self.server_close()
        self.service.close()


def start_server(
    service: InferenceService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    background: bool = True,
) -> ServingServer:
    """Bind and start serving; ``port=0`` picks an ephemeral port.

    With ``background=True`` the accept loop runs on a daemon thread and
    the (bound) server is returned immediately — the pattern tests and
    the smoke script use.  The CLI passes ``background=False`` and blocks
    in ``serve_forever``.
    """
    server = ServingServer((host, port), service, verbose=verbose)
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
    else:
        server.serve_forever()
    return server
