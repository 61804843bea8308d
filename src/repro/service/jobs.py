"""The service's wire format: JSONL sort jobs in, JSONL replies out.

A **job** is one line of JSON: a client-chosen ``id`` plus a ``scenario``
object in exactly the :class:`~repro.experiments.Scenario` vocabulary
(algorithm / workload / machine / procs / keys_per_rank / eps / seed /
layout / backend / payloads) — the service deliberately re-uses the
experiments schema instead of inventing a second description of "one sort
on one machine"::

    {"id": "j1", "scenario": {"algorithm": "hss", "workload": "uniform",
                              "procs": 8, "keys_per_rank": 10000}}

A **reply** is one line of JSON per job, in input order.  ``status: "ok"``
replies carry the same ``metrics``/``machine`` blocks an experiment cell
records (modeled latency is ``metrics.makespan_s``), plus the service
extras: the workload ``fingerprint``, a ``cache`` block (hit/miss, warm
rounds saved), a ``batch`` block, and measured wall-clock latency.
``status: "error"`` replies carry a structured ``error`` object naming the
exception type — one malformed job never kills the stream.

Determinism contract (mirrors :mod:`repro.experiments.schema`): everything
except ``wall_s`` and ``measured`` is a pure function of (code, job), so
:func:`strip_volatile_reply` projections of two runs of the same job
stream agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.experiments.scenario import Scenario
from repro.utils import document

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JobError",
    "SortJob",
    "error_reply",
    "parse_job_line",
    "strip_volatile_reply",
    "validate_job",
    "validate_reply",
]

#: Bumped on any backwards-incompatible change to the job/reply layout.
JOB_SCHEMA_VERSION = 1

#: Reply outcomes.
REPLY_STATUSES = ("ok", "error")

#: Reply fields allowed to differ between identical job streams.
_VOLATILE_REPLY = document.Volatile(("wall_s", "measured"))

_JOB_KEYS = ("id", "scenario", "schema_version")


class JobError(ValueError):
    """A job line does not conform to the job schema."""


@dataclass(frozen=True)
class SortJob:
    """One validated sort job: a client id plus an experiments scenario."""

    id: str
    scenario: Scenario

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SortJob":
        errors, scenario = _check_job(data)
        if errors:
            raise JobError("; ".join(errors))
        return cls(id=str(data["id"]), scenario=scenario)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "scenario": self.scenario.to_dict(),
            "schema_version": JOB_SCHEMA_VERSION,
        }


def validate_job(data: Any) -> list[str]:
    """Return a list of human-readable job violations (empty = valid)."""
    return _check_job(data)[0]


def _check_job(data: Any) -> tuple[list[str], Scenario | None]:
    """A job's violations, plus its :class:`Scenario` when that one built."""
    errors = document.not_object(data, "job")
    if errors:
        return errors, None
    unknown = sorted(set(data) - set(_JOB_KEYS))
    if unknown:
        errors.append(
            f"unknown job key(s) {unknown}; valid keys: {sorted(_JOB_KEYS)}"
        )
    job_id = data.get("id")
    if job_id is None:
        errors.append("job missing required key 'id'")
    elif not isinstance(job_id, str) or not job_id or "\n" in job_id:
        errors.append(f"job id must be a non-empty string, got {job_id!r}")
    errors += document.version_errors(
        data.get("schema_version", JOB_SCHEMA_VERSION), JOB_SCHEMA_VERSION
    )
    fields = data.get("scenario")
    scenario = None
    if fields is None:
        errors.append("job missing required key 'scenario'")
    elif not isinstance(fields, Mapping):
        errors.append(
            f"scenario must be an object, got {type(fields).__name__}"
        )
    else:
        try:
            scenario = Scenario.from_dict(fields)
        except ConfigError as exc:
            errors.append(f"scenario: {exc}")
    return errors, scenario


def parse_job_line(line: str) -> SortJob:
    """Parse one JSONL line into a :class:`SortJob` (:class:`JobError`)."""
    return SortJob.from_dict(document.load_json(line, JobError))


def error_reply(job_id: str | None, exc: BaseException) -> dict[str, Any]:
    """The structured reply for a job that failed with ``exc``."""
    return {
        "schema_version": JOB_SCHEMA_VERSION,
        "id": job_id,
        "status": "error",
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }


def strip_volatile_reply(reply: Mapping[str, Any]) -> dict[str, Any]:
    """Drop the fields allowed to differ between identical job streams."""
    return document.strip_volatile(reply, _VOLATILE_REPLY)


def validate_reply(data: Any) -> list[str]:
    """Return a list of human-readable reply violations (empty = valid)."""
    errors, complete = document.check_header(
        data, "reply", ("schema_version", "id", "status"), JOB_SCHEMA_VERSION
    )
    if not complete:
        return errors
    status = data["status"]
    if status not in REPLY_STATUSES:
        errors.append(f"status {status!r} not in {list(REPLY_STATUSES)}")
    if status == "ok":
        for key in ("scenario", "metrics", "machine", "fingerprint", "cache"):
            if key not in data:
                errors.append(f"ok reply missing key {key!r}")
        if not data.get("metrics"):
            errors.append("ok reply has no metrics")
        if "makespan_s" not in data.get("metrics", {}):
            errors.append("ok reply metrics missing 'makespan_s'")
    if status == "error":
        err = data.get("error")
        if not isinstance(err, Mapping):
            errors.append("error reply missing structured 'error' object")
        else:
            for key in ("type", "message"):
                if key not in err:
                    errors.append(f"error object missing key {key!r}")
    return errors
