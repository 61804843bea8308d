"""The localhost HTTP front end: endpoints, status codes, loopback-only."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigError
from repro.service import SortService
from repro.service.http import MAX_BODY_BYTES, make_server

JOB = {
    "id": "h1",
    "scenario": {
        "algorithm": "hss",
        "workload": "uniform",
        "procs": 4,
        "keys_per_rank": 800,
    },
}


@pytest.fixture()
def server():
    srv = make_server(SortService(), port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _get(server, path):
    host, port = server.server_address[:2]
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(server, path, body: bytes):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestEndpoints:
    def test_healthz(self, server):
        from repro._version import __version__
        from repro.service.jobs import JOB_SCHEMA_VERSION

        code, body = _get(server, "/healthz")
        assert code == 200
        # Superset of the pre-telemetry liveness body: 'status' is
        # unchanged, version provenance rides along.
        assert body["status"] == "ok"
        assert body["version"] == __version__
        assert body["job_schema_version"] == JOB_SCHEMA_VERSION

    def test_sort_then_stats(self, server):
        code, reply = _post(server, "/sort", json.dumps(JOB).encode())
        assert code == 200
        assert reply["status"] == "ok"
        assert reply["cache"]["hit"] is False

        code, repeat = _post(server, "/sort", json.dumps(JOB).encode())
        assert code == 200
        assert repeat["cache"]["hit"] is True
        assert repeat["metrics"]["rounds"] < reply["metrics"]["rounds"]

        code, stats = _get(server, "/stats")
        assert code == 200
        assert stats["jobs_total"] == 2
        assert stats["cache"]["hits"] == 1
        # /stats is now a strict superset: the metrics snapshot agrees
        # with the legacy counters it derives from.
        snap = stats["metrics"]
        assert snap["repro_jobs_total"] == {"status=ok": 2.0}
        assert snap["repro_job_modeled_latency_seconds"]["count"] == 2
        assert snap["repro_cache_hits_total"] == 1.0

    def test_metrics_serves_parseable_prometheus_text(self, server):
        import urllib.request

        from repro.telemetry import parse_prometheus_text

        _post(server, "/sort", json.dumps(JOB).encode())
        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics"
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        parsed = parse_prometheus_text(text)
        assert parsed["repro_jobs_total"][(("status", "ok"),)] == 1.0
        assert (
            parsed["repro_job_wall_latency_seconds_count"][()] == 1.0
        )
        buckets = parsed["repro_job_modeled_latency_seconds_bucket"]
        assert buckets[(("le", "+Inf"),)] == 1.0

    def test_malformed_job_is_400_with_structured_error(self, server):
        code, reply = _post(server, "/sort", b"{not json")
        assert code == 400
        assert reply["status"] == "error"
        assert reply["error"]["type"] == "JobError"

    @pytest.mark.parametrize(
        "length", ["abc", "-1", str(MAX_BODY_BYTES + 1), str(10**12)]
    )
    def test_bad_content_length_is_400_with_structured_error(
        self, server, length
    ):
        with socket.create_connection(
            server.server_address[:2], timeout=5
        ) as sock:
            sock.sendall(
                f"POST /sort HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        reply = json.loads(body)
        assert reply["status"] == "error"
        assert reply["error"]["type"] == "JobError"
        assert length in reply["error"]["message"]

    def test_short_body_times_out_with_structured_error(self, monkeypatch):
        """A body shorter than its Content-Length gets a 400 once the read
        timeout passes, instead of blocking the handler."""
        from repro.service import http

        monkeypatch.setattr(http, "READ_TIMEOUT_S", 0.2)
        srv = make_server(SortService(), port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            # The client timeout turns a handler that never answers into
            # a failure rather than a hang.
            with socket.create_connection(
                srv.server_address[:2], timeout=5
            ) as sock:
                sock.sendall(
                    b"POST /sort HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Length: 100\r\n\r\n" + b'{"id":'
                )
                response = sock.makefile("rb").read()
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        reply = json.loads(body)
        assert reply["status"] == "error"
        assert reply["error"]["type"] == "JobError"
        assert "received 6 of 100 bytes" in reply["error"]["message"]

    def test_unknown_paths_404(self, server):
        assert _get(server, "/nope")[0] == 404
        assert _post(server, "/nope", b"{}")[0] == 404


class TestLoopbackOnly:
    def test_non_loopback_host_refused(self):
        with pytest.raises(ConfigError, match="loopback"):
            make_server(SortService(), host="0.0.0.0")
