"""Optional localhost HTTP front end for the sort service.

Pure stdlib (:mod:`http.server`) — the service stays dependency-free.
The daemon binds loopback only; this is a research harness, not an
internet-facing product, and the handler enforces that.

Endpoints:

- ``POST /sort`` — body is one job JSON object (same schema as a stdin
  JSONL line); the response body is the job's reply.  HTTP 200 for
  ``status: "ok"`` replies, 400 for structured error replies (including
  a ``Content-Length`` above :data:`MAX_BODY_BYTES`, refused unread, and
  a body still short of its ``Content-Length`` after
  :data:`READ_TIMEOUT_S`).
- ``GET /healthz`` — liveness: ``{"status": "ok", ...}`` with package
  and job-schema version info.
- ``GET /stats`` — service + splitter-cache counters, plus the metrics
  registry snapshot.
- ``GET /metrics`` — the same counters in Prometheus text exposition
  (version 0.0.4), scrapeable by any Prometheus-compatible collector.

Requests are serialized through one lock: the service's cache and
counters are plain Python state, and sort jobs are CPU-bound anyway, so
concurrent sorts would only fight over cores the simulator already uses.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro._version import __version__
from repro.errors import ConfigError
from repro.service.daemon import SortService
from repro.service.jobs import JOB_SCHEMA_VERSION, JobError, error_reply

__all__ = ["make_server"]

_LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1")

#: Largest ``POST /sort`` body read.  A job body is a scenario
#: description of a few hundred bytes and never carries data; a larger
#: ``Content-Length`` is refused before any of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Seconds a handler waits on a silent client.  A body shorter than its
#: ``Content-Length`` then gets a 400 instead of holding the handler.
READ_TIMEOUT_S = 10.0


def make_server(
    service: SortService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """An HTTP server wired to ``service`` (not yet serving).

    ``port=0`` binds an ephemeral port — read ``server.server_address``.
    Call ``serve_forever()`` to run, ``shutdown()`` to stop.  Non-loopback
    hosts are refused.
    """
    if host not in _LOOPBACK_HOSTS:
        raise ConfigError(
            f"the sort service only binds loopback hosts "
            f"{list(_LOOPBACK_HOSTS)}, got {host!r}"
        )
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        timeout = READ_TIMEOUT_S

        # Quiet by default: the JSONL replies are the product, not the
        # access log.
        def log_message(self, format: str, *args: object) -> None:
            del format, args

        def _send(self, code: int, body: dict) -> None:
            payload = (json.dumps(body, sort_keys=True) + "\n").encode()
            self._send_bytes(code, payload, "application/json")

        def _send_text(self, code: int, text: str) -> None:
            self._send_bytes(
                code, text.encode(), "text/plain; version=0.0.4"
            )

        def _send_bytes(
            self, code: int, payload: bytes, content_type: str
        ) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802  (http.server API)
            if self.path == "/healthz":
                self._send(
                    200,
                    {
                        "status": "ok",
                        "version": __version__,
                        "job_schema_version": JOB_SCHEMA_VERSION,
                    },
                )
            elif self.path == "/stats":
                with lock:
                    self._send(200, service.stats())
            elif self.path == "/metrics":
                with lock:
                    self._send_text(200, service.metrics.render())
            else:
                self._send(
                    404,
                    {"error": f"unknown path {self.path!r}; "
                              f"try POST /sort, GET /healthz, GET /stats, "
                              f"GET /metrics"},
                )

        def do_POST(self) -> None:  # noqa: N802  (http.server API)
            if self.path != "/sort":
                self._send(404, {"error": f"unknown path {self.path!r}"})
                return
            raw = self.headers.get("Content-Length") or "0"
            try:
                length = int(raw)
            except ValueError:
                length = -1
            if length < 0:
                error = JobError(f"bad Content-Length {raw!r}")
            elif length > MAX_BODY_BYTES:
                error = JobError(
                    f"Content-Length {length} exceeds the "
                    f"{MAX_BODY_BYTES}-byte job body limit"
                )
            else:
                error = None
            if error is not None:
                self._send(400, error_reply(None, error))
                return
            received = b""
            try:
                while len(received) < length and (
                    chunk := self.rfile.read1(length - len(received))
                ):
                    received += chunk
            except TimeoutError:
                error = JobError(
                    f"request body timed out after {self.timeout:g} s: "
                    f"received {len(received)} of {length} bytes"
                )
                self._send(400, error_reply(None, error))
                return
            body = received.decode("utf-8", errors="replace")
            with lock:
                reply = service.handle_line(body)
            self._send(200 if reply.get("status") == "ok" else 400, reply)

    return ThreadingHTTPServer((host, port), Handler)
