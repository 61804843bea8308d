"""The resident sort service: job streams, batching, warm starts.

:class:`SortService` is the engine behind ``repro serve``.  It consumes
sort jobs (parsed by :mod:`repro.service.jobs`), runs each through the
standard :class:`~repro.experiments.Scenario` plumbing, and exploits the
paper's headline property across jobs: splitter intervals learned on one
run warm-start the histogram phase of the next run on similar data.

Batching
--------
Consecutive jobs with the same workload fingerprint form a **batch** (up
to ``batch_max``): the head consults the :class:`SplitterCache`, and every
follower warm-starts directly from its predecessor's freshly computed
shard boundaries — one cache lookup per batch, warm chaining inside it.
A job with a different fingerprint (or a malformed line) flushes the
current batch, so replies always come back in input order.

Warm starts are hints, never truth: they enter
``Sorter.run(initial_intervals=...)`` as probe keys whose exact ranks are
measured by the normal histogram round, so a stale cache costs one probe
round and can never corrupt an output (see
:class:`~repro.core.splitters.SplitterState`).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from typing import Any, Iterable, TextIO

from repro.service.cache import SplitterCache
from repro.service.fingerprint import workload_fingerprint
from repro.service.jobs import (
    JOB_SCHEMA_VERSION,
    JobError,
    SortJob,
    error_reply,
)
from repro.telemetry import SERVICE_PID, MetricsRegistry

#: Jobs-per-batch histogram bounds (batching caps at ``batch_max``).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

__all__ = ["SortService", "shard_boundary_intervals"]


def shard_boundary_intervals(shards) -> tuple | None:
    """A finished run's shard boundaries as degenerate ``(s, s)`` hints.

    The first key of shard ``r`` (r >= 1) *is* the splitter the run
    settled on, so probing it on a repeat workload finalizes that splitter
    in one round.  Empty shards contribute no boundary; structured
    (tagged) keys yield no plain-key hints (None).
    """
    pairs = []
    for shard in shards[1:]:
        if len(shard) == 0:
            continue
        first = shard[0]
        if getattr(first, "dtype", None) is not None and first.dtype.names:
            return None
        key = first.item() if hasattr(first, "item") else first
        pairs.append((key, key))
    return tuple(pairs) if pairs else None


class SortService:
    """A long-lived sort-job processor with a splitter cache.

    Parameters
    ----------
    machine, backend:
        Service-wide defaults injected into jobs whose scenario omits
        them (a job's own explicit values always win).
    cache_capacity:
        LRU bound on remembered workload fingerprints.
    batch_max:
        Maximum consecutive same-fingerprint jobs grouped into one batch.
    trace_sink:
        Optional :class:`~repro.telemetry.TraceSink` recording each job's
        lifecycle (fingerprint / queued / cache-probe / warm-start / run /
        reply) as spans on the service timeline.  ``None`` (default)
        records nothing.

    Unknown default machine or backend names raise
    :class:`~repro.errors.ConfigError` at construction.

    Counters live on :attr:`metrics` — a
    :class:`~repro.telemetry.MetricsRegistry` rendered by ``GET
    /metrics`` and snapshotted into :meth:`stats`.
    """

    def __init__(
        self,
        *,
        machine: str | None = None,
        backend: str | None = None,
        cache_capacity: int = 64,
        batch_max: int = 8,
        trace_sink: Any = None,
    ) -> None:
        from repro.errors import ConfigError
        from repro.machines import get_machine_spec
        from repro.runtime import backend_class

        if batch_max < 1:
            raise ConfigError(f"batch_max must be >= 1, got {batch_max}")
        if machine is not None:
            get_machine_spec(machine)
        if backend is not None:
            backend_class(backend)
        self.default_machine = machine
        self.default_backend = backend
        self.cache = SplitterCache(cache_capacity)
        self.batch_max = int(batch_max)
        self.trace_sink = trace_sink
        self._epoch = time.perf_counter()
        self._enqueued: dict[int, float] = {}
        self._log = logging.getLogger("repro.service")
        self.metrics = MetricsRegistry()
        self._jobs_counter = self.metrics.counter(
            "repro_jobs_total",
            "Sort jobs processed, by final reply status.",
            ("status",),
        )
        self._batch_size_hist = self.metrics.histogram(
            "repro_batch_size",
            "Jobs grouped into each same-fingerprint batch.",
            buckets=_BATCH_BUCKETS,
        )
        self._modeled_latency_hist = self.metrics.histogram(
            "repro_job_modeled_latency_seconds",
            "Modeled sort makespan per successful job.",
        )
        self._wall_latency_hist = self.metrics.histogram(
            "repro_job_wall_latency_seconds",
            "Measured wall-clock per successful job.",
        )
        self.cache.to_metrics(self.metrics)

    # --------------------------------------------------------- telemetry #
    def _clock(self) -> float:
        """Seconds since service start (the service-timeline clock)."""
        return time.perf_counter() - self._epoch

    def _span_row(self) -> None:
        """Name the service process/row in the sink (idempotent)."""
        self.trace_sink.process(SERVICE_PID, "service (sort daemon)")
        self.trace_sink.thread(SERVICE_PID, 0, "jobs")

    def _count_reply(self, reply: dict[str, Any]) -> dict[str, Any]:
        """Final accounting for one reply: counter, log line, reply span."""
        status = reply.get("status", "error")
        self._jobs_counter.labels(status=status).inc()
        if self._log.isEnabledFor(logging.INFO):
            cache = reply.get("cache") or {}
            metrics = reply.get("metrics") or {}
            self._log.info(
                "%s",
                json.dumps(
                    {
                        "event": "job",
                        "id": reply.get("id"),
                        "status": status,
                        "fingerprint": (reply.get("fingerprint") or "")[:12],
                        "cache_source": cache.get("source"),
                        "rounds": metrics.get("rounds"),
                        "wall_s": reply.get("wall_s"),
                        "batch": reply.get("batch"),
                    },
                    sort_keys=True,
                ),
            )
        if self.trace_sink is not None:
            self._span_row()
            self.trace_sink.instant(
                SERVICE_PID,
                0,
                "reply",
                "service",
                self._clock(),
                args={"id": reply.get("id") or "", "status": status},
            )
        return reply

    # ----------------------------------------------------------- parsing #
    def parse_line(self, line: str) -> SortJob:
        """Parse one JSONL job line, applying the service defaults."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JobError(f"not valid JSON: {exc}") from exc
        if isinstance(data, dict) and isinstance(data.get("scenario"), dict):
            scenario = dict(data["scenario"])
            if self.default_machine is not None:
                scenario.setdefault("machine", self.default_machine)
            if self.default_backend is not None:
                scenario.setdefault("backend", self.default_backend)
            data = {**data, "scenario": scenario}
        return SortJob.from_dict(data)

    # ----------------------------------------------------------- running #
    def _run_job(
        self,
        job: SortJob,
        dataset: Any,
        fingerprint: str,
        *,
        batch: dict[str, int],
        carry: tuple | None,
    ) -> tuple[dict[str, Any], tuple | None]:
        """Run one job; returns ``(reply, boundary_intervals)``."""
        from repro.algorithms import REGISTRY

        sink = self.trace_sink
        if sink is not None:
            self._span_row()
            probe_t0 = self._clock()
        warm_capable = REGISTRY.get(job.scenario.algorithm).supports_warm_start
        hints = None
        source = None
        if warm_capable:
            if carry is not None:
                hints, source = carry, "batch"
            else:
                cached = self.cache.get(fingerprint)
                if cached is not None:
                    hints, source = cached, "cache"
        if sink is not None:
            sink.complete(
                SERVICE_PID,
                0,
                "cache-probe",
                "service",
                probe_t0,
                self._clock() - probe_t0,
                args={
                    "id": job.id or "",
                    "fingerprint": fingerprint[:12],
                    "hit": hints is not None,
                    "source": source or "",
                },
            )
            if hints is not None:
                sink.instant(
                    SERVICE_PID,
                    0,
                    "warm-start",
                    "service",
                    self._clock(),
                    args={"source": source, "intervals": len(hints)},
                )
        start = time.perf_counter()
        try:
            run, cell = job.scenario.execute(
                dataset=dataset, initial_intervals=hints
            )
        except Exception as exc:
            if sink is not None:
                sink.complete(
                    SERVICE_PID,
                    0,
                    "run",
                    "service",
                    start - self._epoch,
                    time.perf_counter() - start,
                    args={"id": job.id or "", "status": "error"},
                )
            return error_reply(job.id, exc), None
        wall = time.perf_counter() - start
        if sink is not None:
            sink.complete(
                SERVICE_PID,
                0,
                "run",
                "service",
                start - self._epoch,
                wall,
                args={
                    "id": job.id or "",
                    "status": "ok",
                    "makespan_s": cell["metrics"]["makespan_s"],
                },
            )
        self._modeled_latency_hist.observe(cell["metrics"]["makespan_s"])
        self._wall_latency_hist.observe(wall)

        boundaries = None
        if warm_capable:
            boundaries = shard_boundary_intervals(run.shards)
            if boundaries:
                self.cache.put(fingerprint, boundaries)
        reply = {
            "schema_version": JOB_SCHEMA_VERSION,
            "id": job.id,
            "status": "ok",
            "scenario": cell["scenario"],
            "machine": cell["machine"],
            "metrics": cell["metrics"],
            "fingerprint": fingerprint,
            "cache": {
                "hit": hints is not None,
                "source": source,
                "warm_capable": warm_capable,
                "intervals": len(hints) if hints is not None else 0,
            },
            "batch": dict(batch),
            "wall_s": wall,
            "measured": (
                dataclasses.asdict(run.measured)
                if run.measured is not None
                else None
            ),
        }
        return reply, boundaries

    def run_batch(
        self, items: list[tuple[SortJob, Any, str]]
    ) -> list[dict[str, Any]]:
        """Run one batch of same-fingerprint ``(job, dataset, fp)`` items."""
        replies = []
        carry: tuple | None = None
        self._batch_size_hist.observe(len(items))
        for position, (job, dataset, fingerprint) in enumerate(items):
            if self.trace_sink is not None:
                queued_t0 = self._enqueued.pop(id(job), None)
                if queued_t0 is not None:
                    self._span_row()
                    self.trace_sink.complete(
                        SERVICE_PID,
                        0,
                        "queued",
                        "service",
                        queued_t0,
                        self._clock() - queued_t0,
                        args={"id": job.id or ""},
                    )
            reply, boundaries = self._run_job(
                job,
                dataset,
                fingerprint,
                batch={"size": len(items), "position": position},
                carry=carry,
            )
            if boundaries is not None:
                carry = boundaries
            replies.append(self._count_reply(reply))
        return replies

    def _fingerprint_job(self, job: SortJob) -> tuple[Any, str]:
        """Build the job's dataset and fingerprint it (span-wrapped)."""
        sink = self.trace_sink
        if sink is not None:
            self._span_row()
            t0 = self._clock()
        dataset = job.scenario.build_dataset()
        fingerprint = workload_fingerprint(job.scenario.algorithm, dataset)
        if sink is not None:
            sink.complete(
                SERVICE_PID,
                0,
                "fingerprint",
                "service",
                t0,
                self._clock() - t0,
                args={"id": job.id or "", "fingerprint": fingerprint[:12]},
            )
            self._enqueued[id(job)] = self._clock()
        return dataset, fingerprint

    def handle_job(self, job: SortJob) -> dict[str, Any]:
        """Run a single pre-parsed job (a batch of one)."""
        try:
            dataset, fingerprint = self._fingerprint_job(job)
        except Exception as exc:
            return self._count_reply(error_reply(job.id, exc))
        return self.run_batch([(job, dataset, fingerprint)])[0]

    def handle_line(self, line: str) -> dict[str, Any]:
        """Parse + run one job line (the HTTP front end's unit of work)."""
        try:
            job = self.parse_line(line)
        except JobError as exc:
            return self._count_reply(error_reply(_best_effort_id(line), exc))
        return self.handle_job(job)

    # ---------------------------------------------------------- streaming #
    def process_stream(
        self, lines: Iterable[str], out: TextIO
    ) -> dict[str, Any]:
        """Consume a JSONL job stream; write one JSONL reply per job.

        Replies are emitted in input order.  Malformed jobs produce
        ``status: "error"`` replies and never abort the stream; the
        returned summary counts them.
        """
        batch: list[tuple[SortJob, Any, str]] = []

        def flush() -> None:
            if not batch:
                return
            for reply in self.run_batch(batch):
                self._emit(out, reply)
            batch.clear()

        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                job = self.parse_line(line)
                dataset, fingerprint = self._fingerprint_job(job)
            except Exception as exc:
                flush()
                reply = self._count_reply(
                    error_reply(_best_effort_id(line), exc)
                )
                self._emit(out, reply)
                continue
            if batch and (
                fingerprint != batch[-1][2] or len(batch) >= self.batch_max
            ):
                flush()
            batch.append((job, dataset, fingerprint))
        flush()
        return self.stats()

    @staticmethod
    def _emit(out: TextIO, reply: dict[str, Any]) -> None:
        out.write(json.dumps(reply, sort_keys=True) + "\n")
        out.flush()

    # ------------------------------------------------------------- stats #
    def stats(self) -> dict[str, Any]:
        """Service counters plus cache counters (the ``/stats`` body).

        A strict superset of the pre-telemetry shape: the original keys
        (``jobs_total``, ``errors_total``, ``cache``) are unchanged, and
        ``metrics`` embeds the registry snapshot (histogram count / sum /
        p50 / p99 per latency metric).
        """
        errors = self._jobs_counter.value(status="error")
        return {
            "jobs_total": int(self._jobs_counter.value(status="ok") + errors),
            "errors_total": int(errors),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }


def _best_effort_id(line: str) -> str | None:
    """Recover a job id from a line that failed validation, if any."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(data, dict):
        job_id = data.get("id")
        if isinstance(job_id, str):
            return job_id
    return None
