"""Daemon observability: lifecycle spans, JSONL logs, metric pointers.

Covers structured logging, including a real ``repro serve --log-level
info`` subprocess, and the ``jobs_total``/``errors_total`` keys of
:meth:`SortService.stats`, which are read off the metrics registry
rather than kept as independent tallies.
"""

import io
import json
import logging
import pathlib
import subprocess
import sys

from repro.service import SortService
from repro.telemetry import SERVICE_PID, TraceSink

#: The checkout these tests belong to (subprocesses must run its code).
ROOT = pathlib.Path(__file__).resolve().parents[2]

SCENARIO = {
    "algorithm": "hss",
    "workload": "uniform",
    "procs": 4,
    "keys_per_rank": 800,
}


def _job(job_id, scenario=SCENARIO):
    return json.dumps({"id": job_id, "scenario": scenario})


def _stream(service, lines):
    out = io.StringIO()
    service.process_stream(lines, out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestLifecycleSpans:
    def test_job_spans_in_order(self):
        sink = TraceSink()
        service = SortService(trace_sink=sink)
        _stream(service, [_job("a")])
        names = [
            e["name"]
            for e in sink.events
            if e["pid"] == SERVICE_PID and e["ph"] in ("X", "i")
        ]
        assert names == [
            "fingerprint",
            "queued",
            "cache-probe",
            "run",
            "reply",
        ]
        # The cache-assisted second run adds a warm-start marker.
        before = len(sink.events)
        _stream(service, [_job("b")])
        later = [
            e["name"]
            for e in sink.events[before:]
            if e["pid"] == SERVICE_PID
        ]
        assert "warm-start" in later

    def test_cache_probe_args_carry_hit_and_source(self):
        sink = TraceSink()
        service = SortService(trace_sink=sink)
        _stream(service, [_job("a")])
        _stream(service, [_job("b")])
        probes = [
            e
            for e in sink.events
            if e["pid"] == SERVICE_PID and e["name"] == "cache-probe"
        ]
        assert probes[0]["args"]["hit"] is False
        assert probes[1]["args"]["hit"] is True
        assert probes[1]["args"]["source"] == "cache"

    def test_error_jobs_still_emit_a_reply_instant(self):
        sink = TraceSink()
        service = SortService(trace_sink=sink)
        bad = {**SCENARIO, "algorithm": "no-such-algorithm"}
        replies = _stream(service, [_job("bad", bad)])
        assert replies[0]["status"] == "error"
        (reply,) = [
            e
            for e in sink.events
            if e["pid"] == SERVICE_PID and e["ph"] == "i"
        ]
        assert reply["name"] == "reply"
        assert reply["args"]["status"] == "error"


class TestCounterPointers:
    def test_views_agree_with_the_counter(self):
        service = SortService()
        bad = {**SCENARIO, "algorithm": "no-such-algorithm"}
        _stream(service, [_job("ok"), _job("bad", bad)])
        counter = service.metrics.get("repro_jobs_total")
        stats = service.stats()
        assert stats["jobs_total"] == 2
        assert stats["errors_total"] == 1
        assert counter.value(status="ok") == 1.0
        assert counter.value(status="error") == 1.0

    def test_stats_keys_unchanged_and_metrics_added(self):
        service = SortService()
        _stream(service, [_job("ok")])
        stats = service.stats()
        # The pre-telemetry keys are pinned; 'metrics' is the superset.
        assert {"jobs_total", "errors_total", "cache"} <= set(stats)
        assert stats["metrics"]["repro_jobs_total"] == {"status=ok": 1.0}


class TestStructuredLogging:
    def test_info_log_lines_are_json_with_expected_keys(self, caplog):
        service = SortService()
        with caplog.at_level(logging.INFO, logger="repro.service"):
            _stream(service, [_job("logged")])
        records = [r for r in caplog.records if r.name == "repro.service"]
        assert records
        line = json.loads(records[-1].getMessage())
        assert line["event"] == "job"
        assert line["id"] == "logged"
        assert line["status"] == "ok"
        assert len(line["fingerprint"]) == 12
        assert "rounds" in line and "wall_s" in line

    def test_logging_disabled_by_default(self, caplog):
        service = SortService()
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            _stream(service, [_job("quiet")])
        assert not [
            r for r in caplog.records if r.name == "repro.service"
        ]

    def test_serve_subprocess_emits_jsonl_to_stderr(self):
        # S1 end-to-end: the real CLI entry point, captured the way an
        # operator would (stderr), must produce parseable JSONL.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--log-level", "info"],
            input=_job("sub-1") + "\n",
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
            cwd=ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reply = json.loads(proc.stdout.splitlines()[0])
        assert reply["status"] == "ok"
        log_lines = [
            json.loads(line)
            for line in proc.stderr.splitlines()
            if line.startswith("{")
        ]
        assert any(
            entry.get("event") == "job" and entry.get("id") == "sub-1"
            for entry in log_lines
        )
